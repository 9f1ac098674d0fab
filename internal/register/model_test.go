package register

import (
	"math/rand/v2"
	"testing"

	"probquorum/internal/msg"
	"probquorum/internal/quorum"
	"probquorum/internal/rng"
)

// Model-based randomized test: drive the register layer with random
// operation schedules and check every read against a reference model of
// what a (monotone) random register may legally return:
//
//   - [R2]: the value is the initial value or some previously written one;
//   - returned timestamps never exceed the newest completed write;
//   - [R4]: a monotone client's timestamps never decrease;
//   - a writer reading its own register never sees anything older than its
//     last write (observeOwnWrite).
func TestModelBasedRandomSchedules(t *testing.T) {
	for seed := uint64(1); seed <= 30; seed++ {
		runModelSchedule(t, seed)
	}
}

func runModelSchedule(t *testing.T, seed uint64) {
	t.Helper()
	r := rng.New(seed)
	n := 3 + r.IntN(8)    // 3..10 servers
	k := 1 + r.IntN(n)    // 1..n quorum
	regs := 1 + r.IntN(3) // 1..3 registers
	ops := 100 + r.IntN(200)

	initial := make(map[msg.RegisterID]msg.Value, regs)
	for j := 0; j < regs; j++ {
		initial[msg.RegisterID(j)] = "init"
	}
	c := newCluster(n, initial)
	sys := quorum.NewProbabilistic(n, k)

	writer := NewEngine(0, sys, rng.Derive(seed, "model.writer"), Settings{Monotone: true}.variants)
	plain := NewEngine(1, sys, rng.Derive(seed, "model.plain"))
	mono := NewEngine(2, sys, rng.Derive(seed, "model.mono"), Settings{Monotone: true}.variants)

	// The model: every timestamp ever written, and the newest, per register.
	written := make(map[msg.RegisterID]map[msg.Timestamp]int)
	newest := make(map[msg.RegisterID]msg.Timestamp)
	lastMono := make(map[msg.RegisterID]msg.Timestamp)
	lastWriterRead := make(map[msg.RegisterID]msg.Timestamp)
	for j := 0; j < regs; j++ {
		written[msg.RegisterID(j)] = map[msg.Timestamp]int{{}: 0}
	}

	checkRead := func(reg msg.RegisterID, tag msg.Tagged, last map[msg.RegisterID]msg.Timestamp, label string) {
		if _, ok := written[reg][tag.TS]; !ok {
			t.Fatalf("seed %d n=%d k=%d: %s read of reg %d returned unwritten timestamp %v",
				seed, n, k, label, reg, tag.TS)
		}
		if newest[reg].Less(tag.TS) {
			t.Fatalf("seed %d: %s read returned %v, newer than newest write %v",
				seed, label, tag.TS, newest[reg])
		}
		if last != nil {
			if tag.TS.Less(last[reg]) {
				t.Fatalf("seed %d: %s read regressed from %v to %v",
					seed, label, last[reg], tag.TS)
			}
			last[reg] = tag.TS
		}
	}

	for i := 0; i < ops; i++ {
		reg := msg.RegisterID(r.IntN(regs))
		switch r.IntN(4) {
		case 0: // write
			tag := c.write(writer, reg, i)
			written[reg][tag.TS] = i
			if newest[reg].Less(tag.TS) {
				newest[reg] = tag.TS
			}
		case 1: // plain read
			checkRead(reg, c.read(plain, reg), nil, "plain")
		case 2: // monotone read
			checkRead(reg, c.read(mono, reg), lastMono, "monotone")
		default: // the writer reads its own register
			tag := c.read(writer, reg)
			checkRead(reg, tag, lastWriterRead, "writer")
			if tag.TS.Less(newest[reg]) {
				t.Fatalf("seed %d: writer read %v older than its own last write %v",
					seed, tag.TS, newest[reg])
			}
		}
	}
}

// Fuzz-flavored check of session robustness: arbitrary interleavings of
// valid, duplicate, foreign, and mismatched replies never complete a
// session early or corrupt its result.
func TestSessionRobustnessRandomReplies(t *testing.T) {
	r := rand.New(rand.NewPCG(99, 7))
	for trial := 0; trial < 300; trial++ {
		n := 2 + r.IntN(8)
		k := 1 + r.IntN(n)
		e := NewEngine(0, quorum.NewProbabilistic(n, k), rng.New(uint64(trial)))
		s := e.BeginRead(0)
		inQuorum := make(map[int]bool, len(s.Quorum))
		for _, srv := range s.Quorum {
			inQuorum[srv] = true
		}
		var maxValid msg.Timestamp
		answered := make(map[int]bool)
		for i := 0; i < 50 && !s.Done(); i++ {
			srv := r.IntN(n)
			op := s.Op
			if r.IntN(4) == 0 {
				op += msg.OpID(1 + r.IntN(3)) // foreign op id
			}
			ts := msg.Timestamp{Seq: uint64(r.IntN(10))}
			valid := op == s.Op && inQuorum[srv]
			s.OnReply(srv, msg.ReadReply{Reg: 0, Op: op, Tag: msg.Tagged{TS: ts, Val: int(ts.Seq)}})
			if valid && !answered[srv] {
				answered[srv] = true
				if maxValid.Less(ts) {
					maxValid = ts
				}
			}
		}
		if s.Done() {
			if got := s.Best().TS; got != maxValid {
				t.Fatalf("trial %d: best %v, want %v", trial, got, maxValid)
			}
		}
		if len(answered) < len(s.Quorum) && s.Done() {
			t.Fatalf("trial %d: session completed with %d of %d replies",
				trial, len(answered), len(s.Quorum))
		}
	}
}
