package main

import (
	"testing"

	"probquorum/internal/loadgen"
	"probquorum/internal/msg"
)

func tagged(key msg.RegisterID, seq uint32) msg.Tagged {
	return msg.Tagged{TS: msg.Timestamp{Seq: uint64(seq), Writer: 1}, Val: loadgen.EncodeValue(key, seq)}
}

func TestClassify(t *testing.T) {
	// Key 3 has had writes 1..4 issued, of which 1..3 were acknowledged.
	chk := newChecker(8)
	for i := 0; i < 4; i++ {
		chk.beginWrite(3)
	}
	chk.ackWrite(3, 3)

	tests := []struct {
		name  string
		tag   msg.Tagged
		floor uint32
		want  verdict
	}{
		{"newest acknowledged write", tagged(3, 3), 3, readOK},
		{"a write still in flight", tagged(3, 4), 3, readOK},
		{"older than the floor", tagged(3, 2), 3, readStale},
		{"older, but the read began before the later ack", tagged(3, 2), 2, readOK},
		{"initial value under a floor", msg.Tagged{}, 1, readStale},
		{"initial value, nothing acknowledged yet", msg.Tagged{}, 0, readOK},
		{"another key's value", tagged(5, 3), 3, violIsolation},
		{"not a harness value", msg.Tagged{TS: msg.Timestamp{Seq: 1, Writer: 1}, Val: "x"}, 0, violIsolation},
		{"a sequence number nobody issued", tagged(3, 5), 3, violReadsFrom},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := chk.classify(3, tc.tag, tc.floor); got != tc.want {
				t.Errorf("classify(%v, floor %d) = %v, want %v", tc.tag, tc.floor, got, tc.want)
			}
		})
	}
}

func TestAckWriteKeepsFloorMonotone(t *testing.T) {
	chk := newChecker(1)
	for _, seq := range []uint32{1, 3, 2} {
		chk.ackWrite(0, seq)
	}
	if got := chk.floor(0); got != 3 {
		t.Errorf("floor after acks 1,3,2 = %d, want 3", got)
	}
}

func TestStaleBand(t *testing.T) {
	tests := []struct {
		name         string
		stale, reads int64
		n, k         int
		want         bool
	}{
		{"strict system, no stale reads", 0, 1000, 5, 3, true},
		{"strict system, one stale read", 1, 1000, 5, 3, false},
		{"k=6 of 34 at the analytic 28%", 280, 1000, 34, 6, true},
		{"k=6 of 34 at the top of the band", 309, 1000, 34, 6, true},
		{"k=6 of 34 above the band", 320, 1000, 34, 6, false},
		{"k=6 of 34, no reads at all", 0, 0, 34, 6, true},
		{"k=18 of 34 overlaps always: strict", 1, 1000, 34, 18, false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := staleBandOK(tc.stale, tc.reads, tc.n, tc.k); got != tc.want {
				t.Errorf("staleBandOK(%d, %d, %d, %d) = %v, want %v", tc.stale, tc.reads, tc.n, tc.k, got, tc.want)
			}
		})
	}
}

// TestFabricatedTraces replays hand-made histories through the runner's
// recording path: a legal one must pass, and one fabricated to break each
// check must be counted as a violation (or, on a probabilistic system, as a
// stale read) and fail the command.
func TestFabricatedTraces(t *testing.T) {
	type step struct {
		write bool
		key   msg.RegisterID
		tag   msg.Tagged // what a read returned
	}
	r := func(key msg.RegisterID, tag msg.Tagged) step { return step{key: key, tag: tag} }
	w := func(key msg.RegisterID) step { return step{write: true, key: key} }

	tests := []struct {
		name      string
		k         int // 0: majority of 5; else k of 34
		steps     []step
		wantViol  int64
		wantStale int64
	}{
		{"legal history", 0, []step{w(1), r(1, tagged(1, 1)), w(1), r(1, tagged(1, 2)), w(2), r(2, tagged(2, 1))}, 0, 0},
		{"isolation: key 2's value read from key 1", 0, []step{w(1), w(2), r(1, tagged(2, 1))}, 1, 0},
		{"reads-from: a value never written", 0, []step{w(1), r(1, tagged(1, 7))}, 1, 0},
		{"regularity: older than an acknowledged write", 0, []step{w(1), w(1), r(1, tagged(1, 1))}, 1, 0},
		{"the same read on k=6 of 34 is stale, not wrong", 6, []step{w(1), w(1), r(1, tagged(1, 1))}, 0, 1},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			wl := workload{Name: "fabricated", Loop: closedLoop, InFlight: 1, Servers: 5, Keys: 4, Mix: mixDefault}
			if tc.k > 0 {
				wl.Servers, wl.K = probN, tc.k
			}
			run := newRunner(wl, &plant{}, newChecker(wl.Keys), runOpts{window: 1, windows: 1})
			ws := &run.wins[0]
			for _, s := range tc.steps {
				rec := &opRec{r: run, key: s.key, kind: loadgen.OpRead}
				if s.write {
					rec.kind, rec.seq = loadgen.OpWrite, run.chk.beginWrite(s.key)
					run.record(ws, rec, msg.Tagged{}, nil, 0)
					run.chk.ackWrite(s.key, rec.seq)
					continue
				}
				rec.floor = run.chk.floor(s.key)
				run.record(ws, rec, s.tag, nil, 0)
			}
			if got := ws.viol.Load(); got != tc.wantViol {
				t.Errorf("violations = %d, want %d (%v)", got, tc.wantViol, run.violSeen)
			}
			if got := ws.stale.Load(); got != tc.wantStale {
				t.Errorf("stale reads = %d, want %d", got, tc.wantStale)
			}
			if wantSeen := tc.wantViol > 0; (len(run.violSeen) > 0) != wantSeen {
				t.Errorf("violations reported = %v, want reported = %v", run.violSeen, wantSeen)
			}
		})
	}
}
