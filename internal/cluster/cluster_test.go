package cluster

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"probquorum/internal/metrics"
	"probquorum/internal/msg"
	"probquorum/internal/quorum"
	"probquorum/internal/register"
	"probquorum/internal/rng"
	"probquorum/internal/trace"
)

func newTestCluster(t *testing.T, n int, delay rng.Dist) *Cluster {
	t.Helper()
	c, err := New(Config{
		Servers: n,
		Initial: map[msg.RegisterID]msg.Value{0: "init", 1: 0},
		Delay:   delay,
		Seed:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func TestReadInitial(t *testing.T) {
	c := newTestCluster(t, 5, nil)
	cl, err := c.NewClient(quorum.NewMajority(5))
	if err != nil {
		t.Fatal(err)
	}
	tag, err := cl.Read(0)
	if err != nil {
		t.Fatal(err)
	}
	if tag.Val != "init" || !tag.TS.IsZero() {
		t.Fatalf("initial read = %+v", tag)
	}
}

func TestWriteReadRoundTripStrict(t *testing.T) {
	c := newTestCluster(t, 5, nil)
	w, err := c.NewClient(quorum.NewMajority(5))
	if err != nil {
		t.Fatal(err)
	}
	r, err := c.NewClient(quorum.NewMajority(5))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 20; i++ {
		if err := w.Write(0, i); err != nil {
			t.Fatal(err)
		}
		tag, err := r.Read(0)
		if err != nil {
			t.Fatal(err)
		}
		// Majority quorums intersect: the reader must see the latest write.
		if tag.Val != i {
			t.Fatalf("read %v after write %d", tag.Val, i)
		}
	}
}

func TestReadWriteWithDelays(t *testing.T) {
	c := newTestCluster(t, 5, rng.Exponential{MeanD: 200 * time.Microsecond})
	w, _ := c.NewClient(quorum.NewMajority(5))
	r, _ := c.NewClient(quorum.NewMajority(5))
	for i := 1; i <= 5; i++ {
		if err := w.Write(0, i); err != nil {
			t.Fatal(err)
		}
		tag, err := r.Read(0)
		if err != nil {
			t.Fatal(err)
		}
		if tag.Val != i {
			t.Fatalf("read %v after write %d", tag.Val, i)
		}
	}
}

func TestProbabilisticEventuallyPropagates(t *testing.T) {
	// With k=3 of n=9 (below strict), repeated monotone reads must
	// eventually observe a completed write.
	c := newTestCluster(t, 9, nil)
	w, _ := c.NewClient(quorum.NewProbabilistic(9, 3))
	r, _ := c.NewClient(quorum.NewProbabilistic(9, 3), WithMonotone())
	if err := w.Write(0, "target"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		tag, err := r.Read(0)
		if err != nil {
			t.Fatal(err)
		}
		if tag.Val == "target" {
			return
		}
	}
	t.Fatal("1000 probabilistic reads never saw the write (q ~ 0.7 per read)")
}

func TestConcurrentClients(t *testing.T) {
	c := newTestCluster(t, 7, nil)
	const clients = 8
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for i := 0; i < clients; i++ {
		cl, err := c.NewClient(quorum.NewMajority(7))
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(cl *Client, base int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				if err := cl.Write(1, base*100+j); err != nil {
					errCh <- err
					return
				}
				if _, err := cl.Read(1); err != nil {
					errCh <- err
					return
				}
			}
		}(cl, i)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

func TestCrashedMinorityToleratedWithRetries(t *testing.T) {
	c := newTestCluster(t, 5, nil)
	// Crash 2 of 5: majorities of live servers still exist, so retried
	// probabilistic quorums eventually land on live servers.
	c.Server(0).Crash()
	c.Server(1).Crash()
	cl, err := c.NewClient(quorum.NewProbabilistic(5, 2),
		WithOpTimeout(5*time.Millisecond), WithRetries(200))
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Write(0, "survived"); err != nil {
		t.Fatal(err)
	}
	tag, err := cl.Read(0)
	if err != nil {
		t.Fatal(err)
	}
	if tag.Val != "survived" {
		t.Fatalf("read %v", tag.Val)
	}
}

func TestRetriesExhausted(t *testing.T) {
	c := newTestCluster(t, 3, nil)
	for i := 0; i < 3; i++ {
		c.Server(i).Crash()
	}
	cl, err := c.NewClient(quorum.NewProbabilistic(3, 1),
		WithOpTimeout(time.Millisecond), WithRetries(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Read(0); !errors.Is(err, register.ErrQuorumUnavailable) {
		t.Fatalf("err = %v, want register.ErrQuorumUnavailable", err)
	}
}

func TestRecoveryAfterCrash(t *testing.T) {
	c := newTestCluster(t, 3, nil)
	cl, _ := c.NewClient(quorum.NewAll(3), WithOpTimeout(2*time.Millisecond), WithRetries(50))
	if err := cl.Write(0, "before"); err != nil {
		t.Fatal(err)
	}
	c.Server(1).Crash()
	c.Server(1).Recover()
	tag, err := cl.Read(0)
	if err != nil {
		t.Fatal(err)
	}
	if tag.Val != "before" {
		t.Fatal("state lost across crash/recover")
	}
}

func TestWriteMulti(t *testing.T) {
	c := newTestCluster(t, 5, nil)
	a, _ := c.NewClient(quorum.NewMajority(5))
	b, _ := c.NewClient(quorum.NewMajority(5))
	ts1, err := a.WriteMulti(0, "from-a")
	if err != nil {
		t.Fatal(err)
	}
	ts2, err := b.WriteMulti(0, "from-b")
	if err != nil {
		t.Fatal(err)
	}
	if !ts1.Less(ts2) {
		t.Fatalf("second writer's timestamp %v not after %v", ts2, ts1)
	}
	tag, err := a.Read(0)
	if err != nil {
		t.Fatal(err)
	}
	if tag.Val != "from-b" {
		t.Fatalf("final value = %v", tag.Val)
	}
	ts3, err := a.WriteMulti(0, "from-a-2")
	if err != nil {
		t.Fatal(err)
	}
	if !ts2.Less(ts3) {
		t.Fatal("multi-writer timestamps must keep increasing across writers")
	}
}

func TestTraceRecordingAndProperties(t *testing.T) {
	log := &trace.Log{}
	c := newTestCluster(t, 6, nil)
	w, _ := c.NewClient(quorum.NewProbabilistic(6, 2), WithTrace(log))
	r, _ := c.NewClient(quorum.NewProbabilistic(6, 2), WithTrace(log), WithMonotone())
	for i := 0; i < 100; i++ {
		if err := w.Write(0, i); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Read(0); err != nil {
			t.Fatal(err)
		}
	}
	ops := log.Ops()
	if len(ops) != 200 {
		t.Fatalf("recorded %d ops, want 200", len(ops))
	}
	if err := trace.CheckWellFormed(ops); err != nil {
		t.Fatal(err)
	}
	if err := trace.CheckReadsFrom(ops); err != nil {
		t.Fatal(err)
	}
	if err := trace.CheckMonotone(ops); err != nil {
		t.Fatal(err)
	}
}

func TestMismatchedQuorumSystemRejected(t *testing.T) {
	c := newTestCluster(t, 5, nil)
	if _, err := c.NewClient(quorum.NewMajority(7)); err == nil {
		t.Fatal("mismatched system accepted")
	}
}

func TestOperationsAfterCloseFail(t *testing.T) {
	c := newTestCluster(t, 3, nil)
	cl, err := c.NewClient(quorum.NewAll(3))
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	if _, err := cl.Read(0); !errors.Is(err, ErrClosed) {
		t.Fatalf("read after close: %v", err)
	}
	if _, err := c.NewClient(quorum.NewAll(3)); !errors.Is(err, ErrClosed) {
		t.Fatalf("new client after close: %v", err)
	}
}

func TestCloseIdempotent(t *testing.T) {
	c := newTestCluster(t, 2, nil)
	c.Close()
	c.Close()
}

func TestMessageCounter(t *testing.T) {
	c := newTestCluster(t, 4, nil)
	cl, _ := c.NewClient(quorum.NewAll(4))
	if err := cl.Write(0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Read(0); err != nil {
		t.Fatal(err)
	}
	// 4 requests + 4 replies per op, 2 ops.
	if got := c.Messages(); got != 16 {
		t.Fatalf("messages = %d, want 16", got)
	}
}

func TestInvalidServerCount(t *testing.T) {
	if _, err := New(Config{Servers: 0}); err == nil {
		t.Fatal("zero servers accepted")
	}
}

// TestWithObserverRecordsOps: the observer's Ops histogram is the client's
// end-to-end latency record — one observation per completed operation.
func TestWithObserverRecordsOps(t *testing.T) {
	c := newTestCluster(t, 4, nil)
	obs := new(register.Observer)
	cl, err := c.NewClient(quorum.NewMajority(4), WithObserver(obs))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := cl.Write(0, i); err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Read(0); err != nil {
			t.Fatal(err)
		}
	}
	if got := obs.Ops.Count(); got != 20 {
		t.Fatalf("latency observations = %d, want 20", got)
	}
	if obs.Ops.Quantile(0.99) <= 0 {
		t.Fatal("p99 latency not positive")
	}
}

func TestDetachStopsDeliveries(t *testing.T) {
	c := newTestCluster(t, 3, nil)
	cl, err := c.NewClient(quorum.NewAll(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Read(0); err != nil {
		t.Fatal(err)
	}
	cl.Detach()
	// A fresh client still works; the cluster only dropped the detached one.
	fresh, err := c.NewClient(quorum.NewAll(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fresh.Read(0); err != nil {
		t.Fatal(err)
	}
}

func TestWithTallyRecordsQuorums(t *testing.T) {
	c := newTestCluster(t, 5, nil)
	tally := metrics.NewAccessTally(5)
	cl, err := c.NewClient(quorum.NewProbabilistic(5, 2), WithTally(tally))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		if _, err := cl.Read(0); err != nil {
			t.Fatal(err)
		}
	}
	if got := tally.Total(); got != 7 {
		t.Fatalf("tally ops = %d, want 7", got)
	}
}

func TestCloseLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	c, err := New(Config{
		Servers: 8,
		Initial: map[msg.RegisterID]msg.Value{0: 0},
		Delay:   rng.Exponential{MeanD: 100 * time.Microsecond},
		Seed:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := c.NewClient(quorum.NewMajority(8))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := cl.Write(0, i); err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Read(0); err != nil {
			t.Fatal(err)
		}
	}
	c.Close()
	// Allow the runtime a moment to reap.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before+2 {
		t.Fatalf("goroutines leaked: %d before, %d after close", before, after)
	}
}
