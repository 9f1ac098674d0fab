package register_test

import (
	"testing"

	"probquorum/internal/quorum"
	"probquorum/internal/register"
	"probquorum/internal/rng"
	"probquorum/internal/transport/tcp"
)

// TestSettingsValidation: a client configuration is checked in one place,
// register.Settings.Validate, so the register builder and tcp.Dial refuse a
// bad one with the same error. Each case gives the settings both as the
// struct and as the tcp setters that fill it.
func TestSettingsValidation(t *testing.T) {
	const n = 3
	sys := quorum.NewMajority(n)
	zeroEpoch := quorum.View{Members: []int32{0, 1, 2}}
	wide := quorum.View{Epoch: 1, Members: []int32{0, 1, 2, 3}}
	cases := []struct {
		name string
		s    register.Settings
		opts []tcp.ClientOption
	}{
		{"invalid view", register.Settings{View: &zeroEpoch}, []tcp.ClientOption{tcp.WithView(zeroEpoch)}},
		{"negative masking", register.Settings{Masking: -1}, []tcp.ClientOption{tcp.WithMasking(-1)}},
		{"view n differs from the system's", register.Settings{View: &wide}, []tcp.ClientOption{tcp.WithView(wide)}},
	}
	// Never dialed: every case is refused before the first connection.
	addrs := []string{"127.0.0.1:1", "127.0.0.1:1", "127.0.0.1:1"}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, want := tc.s.Engine(1, sys, rng.New(1))
			if want == nil {
				t.Fatal("the register builder accepted the settings")
			}
			if _, got := tcp.Dial(addrs, sys, tc.opts...); got == nil || got.Error() != want.Error() {
				t.Errorf("tcp.Dial: err = %v, want the builder's %q", got, want)
			}
		})
	}
}
