package tcp

// Conformance rows for a connection set: several engines — independent
// register clients — multiplexed on one socket per server.

import (
	"errors"
	"testing"
	"time"

	"probquorum/internal/faults"
	"probquorum/internal/metrics"
	"probquorum/internal/msg"
	"probquorum/internal/quorum"
	"probquorum/internal/register"
	"probquorum/internal/trace"
)

// linkedCluster is pipeCluster behind one fault link per server.
func linkedCluster(t *testing.T, n int) ([]string, []*Server, []*faults.Link) {
	t.Helper()
	backends, servers := pipeCluster(t, n, nil)
	addrs := make([]string, n)
	links := make([]*faults.Link, n)
	for i, b := range backends {
		l, err := faults.NewLink(b)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(l.Close)
		links[i], addrs[i] = l, l.Addr()
	}
	return addrs, servers, links
}

// dialTwo dials a set of two engines, writers 1 and 2, each configured by
// opts and then its own options.
func dialTwo(t *testing.T, addrs []string, sys quorum.System, a, b []ClientOption, opts ...ClientOption) (*Set, *Client, *Client) {
	t.Helper()
	a = append([]ClientOption{WithWriter(1), WithSeed(11)}, a...)
	b = append([]ClientOption{WithWriter(2), WithSeed(12)}, b...)
	s, err := DialSet(addrs, sys, 1, [][]ClientOption{a, b}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s, s.Engine(0), s.Engine(1)
}

// TestConnSetSeparateCaches: each engine's monotone cache is its own. A
// value only server 0 holds reaches engine A; once server 0 is down, A's
// reads still return it from A's cache, and B — which never saw it — reads
// the servers' zero value.
func TestConnSetSeparateCaches(t *testing.T) {
	addrs, servers := pipeCluster(t, 3, nil)
	_, a, b := dialTwo(t, addrs, quorum.NewMajority(3), nil, nil, WithMonotone())
	v := msg.Tagged{TS: msg.Timestamp{Seq: 5, Writer: 9}, Val: 1.5}
	if _, ok := servers[0].Store().ApplyWrite(msg.WriteReq{Reg: 0, Tag: v}); !ok {
		t.Fatal("store 0 refused the write")
	}
	for i := 0; ; i++ {
		tag, err := a.Read(0)
		if err != nil {
			t.Fatal(err)
		}
		if tag.TS == v.TS {
			break
		}
		if i == 100 {
			t.Fatal("engine A never picked server 0")
		}
	}
	servers[0].Store().Crash()
	for i := 0; i < 5; i++ {
		if tag, err := a.Read(0); err != nil || tag.TS != v.TS {
			t.Fatalf("A read %d = %+v, %v; want its cached %+v", i, tag, err, v)
		}
		if tag, err := b.Read(0); err != nil || tag.TS != (msg.Timestamp{}) {
			t.Fatalf("B read %d = %+v, %v; want the zero value A's cache must not leak", i, tag, err)
		}
	}
	if a.CacheHits() == 0 || b.CacheHits() != 0 {
		t.Errorf("cache hits A = %d, B = %d; want A > 0, B = 0", a.CacheHits(), b.CacheHits())
	}
}

// TestConnSetSeparateRetryBudgets: each engine spends its own retry budget.
// With two of three servers silent no majority answers; engine A, allowed
// one retry, gives up, while engine B, unlimited, rides the partition out
// and completes once it heals.
func TestConnSetSeparateRetryBudgets(t *testing.T) {
	addrs, _, links := linkedCluster(t, 3)
	_, a, b := dialTwo(t, addrs, quorum.NewMajority(3), []ClientOption{WithRetries(1)}, nil,
		WithOpTimeout(faultOpTimeout))
	links[1].SetBlocked(true)
	links[2].SetBlocked(true)
	pb := b.WriteAsyncFunc(1, 2.0, nil)
	if err := a.Write(0, 1.0); !errors.Is(err, register.ErrQuorumUnavailable) {
		t.Fatalf("A's write through the partition: err = %v, want ErrQuorumUnavailable", err)
	}
	select {
	case <-pb.Done():
		t.Fatal("B's write ended with A's budget")
	default:
	}
	links[1].SetBlocked(false)
	links[2].SetBlocked(false)
	if _, err := pb.Wait(); err != nil {
		t.Fatalf("B's write after the heal: %v", err)
	}
	if ra, rb := a.Retries(), b.Retries(); ra != 1 || rb < ra {
		t.Errorf("retries A = %d, B = %d; want A = 1 (its budget) and B at least as many", ra, rb)
	}
}

// TestConnSetDemux: two engines pipelining on the same registers, so their
// op ids interleave on every socket and in every reply frame. Each reply
// must reach the engine that issued it: no operation waits out a deadline,
// no reply is dropped as stale, and each engine's trace — labeled with its
// own writer — is well formed and atomic. (The small retry budget turns a
// misrouted reply into a prompt failure rather than endless re-issues.)
func TestConnSetDemux(t *testing.T) {
	addrs, _ := pipeCluster(t, 5, nil)
	log := &trace.Log{}
	tca, tcb := &metrics.TransportCounters{}, &metrics.TransportCounters{}
	_, a, b := dialTwo(t, addrs, quorum.NewMajority(5),
		[]ClientOption{WithTransportCounters(tca)}, []ClientOption{WithTransportCounters(tcb)},
		WithTrace(log), WithOpTimeout(faultOpTimeout), WithRetries(1))
	const regs, rounds = 8, 40
	var ops []*register.PendingOp
	for r := 1; r <= rounds; r++ {
		ops = ops[:0]
		for reg := msg.RegisterID(0); reg < regs; reg++ {
			// A writes the even registers, B the odd; both read all of them.
			w := a
			if reg%2 == 1 {
				w = b
			}
			ops = append(ops, w.WriteAsyncFunc(reg, float64(r), nil), a.ReadAtomicAsyncFunc(reg, nil), b.ReadAtomicAsyncFunc(reg, nil))
		}
		for _, op := range ops {
			if _, err := op.Wait(); err != nil {
				t.Fatalf("round %d reg %d: %v", r, op.Reg(), err)
			}
		}
	}
	for name, tc := range map[string]*metrics.TransportCounters{"A": tca, "B": tcb} {
		if tc.StaleDrops.Value() != 0 || tc.Retries.Value() != 0 {
			t.Errorf("engine %s: %d stale drops, %d retries; want none", name, tc.StaleDrops.Value(), tc.Retries.Value())
		}
	}
	checkAtomicTrace(t, log)
}

// TestConnSetCloseEngine: closing one engine fails its own operations and
// nothing else — the other engine keeps running on the same sockets — and
// closing the set ends them all.
func TestConnSetCloseEngine(t *testing.T) {
	addrs, servers, links := linkedCluster(t, 3)
	s, a, b := dialTwo(t, addrs, quorum.NewMajority(3), nil, nil)
	for _, l := range links {
		l.SetBlocked(true)
	}
	pa, pb := a.WriteAsyncFunc(0, 1.0, nil), b.WriteAsyncFunc(1, 2.0, nil)
	a.Close()
	if _, err := pa.Wait(); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("A's pending write after A closed: err = %v, want ErrClientClosed", err)
	}
	for _, l := range links {
		l.SetBlocked(false)
	}
	if _, err := pb.Wait(); err != nil {
		t.Fatalf("B's pending write: %v", err)
	}
	if err := b.Write(1, 3.0); err != nil {
		t.Fatalf("B after A closed: %v", err)
	}
	if _, err := a.Read(0); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("A's read after close: err = %v, want ErrClientClosed", err)
	}
	for i, srv := range servers {
		if n := srv.Health().Sessions; n != 1 {
			t.Errorf("server %d holds %d connections, want the set's one", i, n)
		}
	}
	s.Close()
	if _, err := b.Read(1); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("B's read after the set closed: err = %v, want ErrClientClosed", err)
	}
}

// TestConnSetCrashSuspectedOnce: both engines have writes waiting on server
// 1 when it crashes. The crash signal suspects it once for the set, and
// each engine replaces it in its own waiting operations — top-ups, no
// retries — and both then see it suspected.
func TestConnSetCrashSuspectedOnce(t *testing.T) {
	addrs, servers, links := linkedCluster(t, 5)
	tca, tcb := &metrics.TransportCounters{}, &metrics.TransportCounters{}
	_, a, b := dialTwo(t, addrs, quorum.NewMajority(5),
		[]ClientOption{WithTransportCounters(tca)}, []ClientOption{WithTransportCounters(tcb)})
	links[1].SetBlocked(true)
	var ops []*register.PendingOp
	for reg := msg.RegisterID(0); reg < 8; reg++ {
		ops = append(ops, a.WriteAsyncFunc(2*reg, 1.0, nil), b.WriteAsyncFunc(2*reg+1, 1.0, nil))
	}
	// The picks are seeded: some of each engine's quorums include server 1.
	waitFor(t, 2*time.Second, "writes clear of server 1 to complete", func() bool {
		return a.InFlight() < 8 && b.InFlight() < 8
	})
	if a.InFlight() == 0 || b.InFlight() == 0 {
		t.Fatalf("in flight on the blocked server: A %d, B %d; want both > 0",
			a.InFlight(), b.InFlight())
	}
	servers[1].Store().Crash()
	links[1].SetBlocked(false)
	for _, op := range ops {
		if _, err := op.Wait(); err != nil {
			t.Fatalf("write of reg %d: %v", op.Reg(), err)
		}
	}
	if n := tca.Suspicions.Value() + tcb.Suspicions.Value(); n != 1 {
		t.Errorf("suspicions A + B = %d, want 1: one server, one set", n)
	}
	if tca.TopUps.Value() == 0 || tcb.TopUps.Value() == 0 {
		t.Errorf("top-ups A = %d, B = %d; want both > 0", tca.TopUps.Value(), tcb.TopUps.Value())
	}
	if ra, rb := a.Retries(), b.Retries(); ra+rb != 0 {
		t.Errorf("retries A = %d, B = %d; want 0: a crash signal costs no deadline", ra, rb)
	}
	if !a.Health()[1].Suspected || !b.Health()[1].Suspected {
		t.Error("the crashed server is not suspected by both engines")
	}
}

// TestConnSetEngineOptions: the view and the batch histogram belong to the
// connections, so an engine that sets one is refused instead of silently
// running without it; and defaults apply after each engine's options, so an
// engine's WithOpTimeout(0) leaves it the default deadline — a silent server
// costs its operations one deadline, not a wait for ever.
func TestConnSetEngineOptions(t *testing.T) {
	t.Parallel()
	addrs, _, links := linkedCluster(t, 3)
	sys := quorum.NewMajority(3)
	v := quorum.View{Epoch: 1, Members: []int32{0, 1, 2}, Addrs: addrs}
	for name, opt := range map[string]ClientOption{
		"view":            WithView(v),
		"batch histogram": WithBatchHistogram(metrics.NewIntHistogram()),
	} {
		if s, err := DialSet(addrs, sys, 1, [][]ClientOption{nil, {opt}}); err == nil {
			s.Close()
			t.Errorf("an engine's own %s was accepted", name)
		}
	}
	_, a, _ := dialTwo(t, addrs, sys, []ClientOption{WithOpTimeout(0)}, nil, WithOpTimeout(faultOpTimeout))
	links[0].SetBlocked(true)
	var ops []*register.PendingOp
	for reg := msg.RegisterID(0); reg < 8; reg++ {
		ops = append(ops, a.WriteAsyncFunc(reg, 1.0, nil))
	}
	expired := time.After(defaultOpTimeout + time.Second)
	for _, op := range ops {
		select {
		case <-op.Done():
		case <-expired:
			t.Fatalf("write of reg %d still waits on the silent server: the engine runs without a deadline", op.Reg())
		}
	}
	links[0].SetBlocked(false)
}
