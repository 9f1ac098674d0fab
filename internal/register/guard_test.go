package register

import (
	"strings"
	"testing"

	"probquorum/internal/msg"
	"probquorum/internal/quorum"
	"probquorum/internal/rng"
)

// TestEngineGuardPanicsOnConcurrentEntry deterministically trips the
// concurrency assertion: the guard is held (as another goroutine inside an
// Engine call would hold it) while a second entry arrives. Before the guard
// existed, the documented "not safe for concurrent use" contract was
// unenforced and such interleavings silently corrupted session state.
func TestEngineGuardPanicsOnConcurrentEntry(t *testing.T) {
	sys := quorum.NewMajority(5)
	e := NewEngine(1, sys, rng.Derive(3, "guard.test"))
	e.guard.enter() // simulate another caller mid-operation
	defer e.guard.leave()

	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("beginRead under a held guard did not panic")
		}
		s, ok := r.(string)
		if !ok || !strings.Contains(s, "concurrent Engine use") {
			t.Fatalf("panic = %v, want concurrent-use message", r)
		}
	}()
	e.beginRead(0, nil)
}

// TestEngineGuardReleasedOnNormalUse confirms the guard is invisible to the
// supported serial call pattern: every public entry point runs back-to-back
// without tripping it.
func TestEngineGuardReleasedOnNormalUse(t *testing.T) {
	sys := quorum.NewMajority(5)
	e := NewEngine(1, sys, rng.Derive(4, "guard.serial"), Settings{Monotone: true}.variants)
	for i := 0; i < 10; i++ {
		rs := e.beginRead(msg.RegisterID(i%2), nil)
		rs = e.beginRead(rs.Reg, rs)
		for _, srv := range rs.Quorum {
			rs.OnReply(srv, msg.ReadReply{Reg: rs.Reg, Op: rs.Op})
		}
		_ = e.finishRead(rs)
		ws := e.beginWrite(msg.RegisterID(i%2), e.stamp(float64(i)), nil)
		ws = e.beginWrite(ws.Reg, ws.Tag, ws)
		for _, srv := range ws.Quorum {
			ws.OnAck(srv, msg.WriteAck{Reg: ws.Reg, Op: ws.Op})
		}
	}
}
