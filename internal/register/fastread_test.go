package register_test

// Tests of the atomic read's one-round-trip fast path (write-back elision on
// a unanimous quorum) and of the fault-path accounting around it: the
// late-read-reply StaleDrops regression.

import (
	"testing"

	"probquorum/internal/metrics"
	"probquorum/internal/msg"
	"probquorum/internal/quorum"
	"probquorum/internal/register"
	"probquorum/internal/rng"
)

func allClient(n int, opts ...register.PipelineOption) (*register.Pipeline, *loopback) {
	tr := newLoopback(n)
	e := register.NewEngine(1, quorum.NewAll(n), rng.Derive(1, "fastread.test"))
	return register.NewPipelineOver(e, tr, opts...), tr
}

// TestAtomicReadFastPathUnanimous pins the elision: after a write reached
// every replica, an atomic read over the full quorum sees unanimous replies
// and completes without a write-back phase.
func TestAtomicReadFastPathUnanimous(t *testing.T) {
	cl, _ := allClient(4)
	if err := cl.Write(0, 2.5); err != nil {
		t.Fatal(err)
	}
	tag, err := cl.ReadAtomic(0)
	if err != nil {
		t.Fatal(err)
	}
	if tag.Val != 2.5 {
		t.Fatalf("atomic read = %v, want 2.5", tag.Val)
	}
	if got := cl.Engine().FastReads(); got != 1 {
		t.Fatalf("FastReads = %d, want 1 (unanimous quorum must elide the write-back)", got)
	}
}

// TestAtomicReadSlowPathOnDisagreement pins the fallback: when one replica
// holds a fresher tag than the rest, the replies disagree, the fast path
// must not fire, and the awaited write-back spreads the fresh value to every
// replica before the read returns.
func TestAtomicReadSlowPathOnDisagreement(t *testing.T) {
	cl, tr := allClient(5)
	if err := cl.Write(0, 1.0); err != nil {
		t.Fatal(err)
	}
	// Replica 0 alone learns a fresher value, as if a concurrent writer's
	// quorum only overlapped this read's quorum in one member.
	fresh := msg.Tagged{TS: msg.Timestamp{Seq: 9, Writer: 7}, Val: 9.0}
	if _, ok := tr.stores[0].Apply(msg.WriteReq{Reg: 0, Op: 999, Tag: fresh}); !ok {
		t.Fatal("seeding replica 0 failed")
	}
	tag, err := cl.ReadAtomic(0)
	if err != nil {
		t.Fatal(err)
	}
	if tag.Val != 9.0 {
		t.Fatalf("atomic read = %v, want the fresh 9.0", tag.Val)
	}
	if got := cl.Engine().FastReads(); got != 0 {
		t.Fatalf("FastReads = %d, want 0 (disagreeing quorum must write back)", got)
	}
	for i, st := range tr.stores {
		if got := st.Get(0); got.TS != fresh.TS {
			t.Fatalf("replica %d missed the write-back: %+v", i, got)
		}
	}
}

// TestAtomicReadSlowPathWhenCacheFresher pins the monotone gate: a unanimous
// quorum is not enough when the monotone cache holds a fresher value — the
// read returns the cached value, which this quorum does NOT hold, so the
// spreading write-back must still run.
func TestAtomicReadSlowPathWhenCacheFresher(t *testing.T) {
	tr := newLoopback(3)
	e := register.MustEngine(register.Settings{Monotone: true}, 1, quorum.NewAll(3), rng.Derive(1, "fastread.cache"))
	cl := register.NewPipelineOver(e, tr)
	if err := cl.Write(0, 1.0); err != nil {
		t.Fatal(err)
	}
	// The client observed a fresher value than any replica holds: its own
	// multi-writer write, begun but not yet sent to any member.
	cached := msg.Tagged{TS: msg.Timestamp{Seq: 8, Writer: 1}, Val: 8.0}
	e.BeginWriteWithTS(0, cached)
	tag, err := cl.ReadAtomic(0)
	if err != nil {
		t.Fatal(err)
	}
	if tag.Val != 8.0 {
		t.Fatalf("atomic read = %v, want the cached 8.0", tag.Val)
	}
	if got := e.FastReads(); got != 0 {
		t.Fatalf("FastReads = %d, want 0 (fresher cache must force the write-back)", got)
	}
	for i, st := range tr.stores {
		if got := st.Get(0); got.TS != cached.TS {
			t.Fatalf("replica %d missed the cached value's write-back: %+v", i, got)
		}
	}
}

// TestMaskingNeverFast pins the Byzantine gate: a b-masking engine must not
// elide write-backs even on unanimous replies — a masked read counts tag
// support (b+1 matching replies), which the write-back's propagation
// provides, and a faulty replica can claim a tag it does not store.
func TestMaskingNeverFast(t *testing.T) {
	tr := newLoopback(4)
	e := register.MustEngine(register.Settings{Masking: 1}, 1, quorum.NewAll(4), rng.Derive(1, "fastread.mask"))
	cl := register.NewPipelineOver(e, tr)
	if err := cl.Write(0, 6.0); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.ReadAtomic(0); err != nil {
		t.Fatal(err)
	}
	if got := e.FastReads(); got != 0 {
		t.Fatalf("FastReads = %d, want 0: masking engines must always write back", got)
	}
}

// dupLoopback duplicates every read reply it delivers, holding the copy back
// until the next Send: the duplicate of the final quorum member's reply is
// delivered while the first write-back request goes out, i.e. after the
// atomic read has transitioned into its write-back phase — exactly the late
// same-operation read reply that was misclassified as a stale drop.
type dupLoopback struct {
	*loopback
	pendingServer int
	pendingReply  any
}

func (d *dupLoopback) Send(server int, req any) error {
	if d.pendingReply != nil {
		reply := d.pendingReply
		d.pendingReply = nil
		d.sink(d.pendingServer, reply, nil)
	}
	if reply, ok := d.stores[server].Apply(req); ok {
		d.sink(server, reply, nil)
		if _, isRead := reply.(msg.ReadReply); isRead {
			d.pendingServer, d.pendingReply = server, reply
		}
	}
	return nil
}

// TestStaleDropsZeroOnLateReadReply is the regression test for a late
// read reply misclassified as stale: a read reply from the atomic read's own
// read phase arriving once the operation is in its write-back phase must
// drain as a harmless duplicate, not count as a stale drop.
func TestStaleDropsZeroOnLateReadReply(t *testing.T) {
	tr := &dupLoopback{loopback: newLoopback(3)}
	e := register.NewEngine(1, quorum.NewAll(3), rng.Derive(1, "fastread.stale"))
	tc := &metrics.TransportCounters{}
	cl := register.NewPipelineOver(e, tr, register.ApplyPipeline(register.Settings{Counters: tc}))
	if err := cl.Write(0, 1.0); err != nil {
		t.Fatal(err)
	}
	// Disagreeing replies force the write-back path, so the duplicate of the
	// final read reply arrives mid-write-back.
	fresh := msg.Tagged{TS: msg.Timestamp{Seq: 5, Writer: 9}, Val: 5.0}
	if _, ok := tr.stores[0].Apply(msg.WriteReq{Reg: 0, Op: 999, Tag: fresh}); !ok {
		t.Fatal("seeding replica 0 failed")
	}
	if _, err := cl.ReadAtomic(0); err != nil {
		t.Fatal(err)
	}
	if got := tc.StaleDrops.Value(); got != 0 {
		t.Fatalf("StaleDrops = %d, want 0: a late reply from the current read phase is not stale", got)
	}
	if got := e.FastReads(); got != 0 {
		t.Fatalf("FastReads = %d, want 0 on the disagreement schedule", got)
	}
}

// TestPipelineStaleDropsZeroOnLateReadReply is the pipelined leg of the same
// regression: the read-phase op id stays in the in-flight map during the
// write-back, so the duplicate drains without touching StaleDrops.
func TestPipelineStaleDropsZeroOnLateReadReply(t *testing.T) {
	tr := &dupLoopback{loopback: newLoopback(3)}
	e := register.NewEngine(1, quorum.NewAll(3), rng.Derive(1, "fastread.pipestale"))
	tc := &metrics.TransportCounters{}
	p := register.NewPipelineOver(e, tr, register.ApplyPipeline(register.Settings{Counters: tc}))
	defer p.Close(nil)
	if err := p.Write(0, 1.0); err != nil {
		t.Fatal(err)
	}
	fresh := msg.Tagged{TS: msg.Timestamp{Seq: 5, Writer: 9}, Val: 5.0}
	if _, ok := tr.stores[0].Apply(msg.WriteReq{Reg: 0, Op: 999, Tag: fresh}); !ok {
		t.Fatal("seeding replica 0 failed")
	}
	tag, err := p.ReadAtomic(0)
	if err != nil {
		t.Fatal(err)
	}
	if tag.Val != 5.0 {
		t.Fatalf("pipelined atomic read = %v, want 5.0", tag.Val)
	}
	if got := tc.StaleDrops.Value(); got != 0 {
		t.Fatalf("StaleDrops = %d, want 0: a late reply from the current read phase is not stale", got)
	}
}

// TestFastReadAllocGate pins the fast path's allocation cost: a steady-state
// unanimous atomic read must allocate exactly as much as a plain read — the
// unanimity tracking adds no per-reply allocations, and the elided write-back
// session never materializes. (scripts/check.sh runs this with the other
// allocation gates.)
func TestFastReadAllocGate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	cl, _ := allClient(4)
	if err := cl.Write(0, 1.0); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.ReadAtomic(0); err != nil { // warm up the recycled sessions
		t.Fatal(err)
	}
	plain := testing.AllocsPerRun(200, func() {
		if _, err := cl.Read(0); err != nil {
			t.Fatal(err)
		}
	})
	fast := testing.AllocsPerRun(200, func() {
		tag, err := cl.ReadAtomic(0)
		if err != nil {
			t.Fatal(err)
		}
		if tag.Val != 1.0 {
			t.Fatal("unexpected value; schedule no longer unanimous")
		}
	})
	if got := cl.Engine().FastReads(); got < 200 {
		t.Fatalf("FastReads = %d; the measured reads did not stay on the fast path", got)
	}
	if fast != plain {
		t.Errorf("fast-path atomic read = %v allocs/op, plain read = %v; elision must add none", fast, plain)
	}
}
