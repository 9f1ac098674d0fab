package cluster_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"probquorum/internal/cluster"
	"probquorum/internal/metrics"
	"probquorum/internal/msg"
	"probquorum/internal/quorum"
	"probquorum/internal/register"
	"probquorum/internal/rng"
	"probquorum/internal/trace"
)

func pipeTestCluster(t *testing.T, n int, delay rng.Dist) *cluster.Cluster {
	t.Helper()
	c, err := cluster.New(cluster.Config{
		Servers: n,
		Initial: map[msg.RegisterID]msg.Value{0: 0.0, 1: 0.0, 2: 0.0, 3: 0.0},
		Delay:   delay,
		Seed:    42,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// TestPipeClientTracedRandomSchedule is the cluster leg of the trace-checked
// concurrency harness: several clients mixing blocking and async calls,
// random per-goroutine schedules over shared registers, message delays
// shuffling delivery order — and every execution must pass the pipelined
// structural check, [R2], [R4], and prove genuine overlap.
func TestPipeClientTracedRandomSchedule(t *testing.T) {
	c := pipeTestCluster(t, 5, rng.Exponential{MeanD: 100 * time.Microsecond})
	sys := quorum.NewMajority(5)

	log := &trace.Log{}
	gauge := &metrics.Gauge{}
	const clients = 3
	pcs := make([]*cluster.Client, clients)
	for i := range pcs {
		pc, err := c.NewClient(sys, register.Settings{Monotone: true, Trace: log, Gauge: gauge})
		if err != nil {
			t.Fatal(err)
		}
		defer pc.Close()
		pcs[i] = pc
	}

	var wg sync.WaitGroup
	for ci, pc := range pcs {
		ci, pc := ci, pc
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := rng.Derive(uint64(990+ci), "pipe.schedule")
			for i := 0; i < 60; i++ {
				reg := msg.RegisterID(r.IntN(4))
				if r.IntN(3) == 0 {
					if err := pc.Write(reg, float64(ci*1000+i)); err != nil {
						t.Errorf("client %d write: %v", ci, err)
						return
					}
				} else if _, err := pc.Read(reg); err != nil {
					t.Errorf("client %d read: %v", ci, err)
					return
				}
			}
			// A burst of async reads over all registers guarantees this
			// client overlapped operations at least once.
			pend := make([]*register.PendingOp, 0, 4)
			for reg := msg.RegisterID(0); reg < 4; reg++ {
				pend = append(pend, pc.ReadAsync(reg))
			}
			for _, op := range pend {
				if _, err := op.Wait(); err != nil {
					t.Errorf("client %d burst read: %v", ci, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	ops := log.Ops()
	if len(ops) == 0 {
		t.Fatalf("trace is empty")
	}
	if err := trace.CheckPipelinedWellFormed(ops); err != nil {
		t.Fatalf("pipelined well-formedness: %v", err)
	}
	if err := trace.CheckReadsFrom(ops); err != nil {
		t.Fatalf("[R2]: %v", err)
	}
	if err := trace.CheckMonotone(ops); err != nil {
		t.Fatalf("[R4]: %v", err)
	}
	if got := trace.MaxInFlight(ops); got < 2 {
		t.Fatalf("MaxInFlight = %d, want >= 2", got)
	}
	if gauge.Max() < 2 {
		t.Fatalf("in-flight gauge high-watermark = %d, want >= 2", gauge.Max())
	}
	if gauge.Value() != 0 {
		t.Fatalf("in-flight gauge after quiescence = %d, want 0", gauge.Value())
	}
}

// TestPipeClientRidesOutCrash crashes replicas under a client with
// retry deadlines; the workload must complete and the trace must stay valid.
func TestPipeClientRidesOutCrash(t *testing.T) {
	c := pipeTestCluster(t, 5, rng.Exponential{MeanD: 50 * time.Microsecond})
	sys := quorum.NewMajority(5)
	log := &trace.Log{}
	pc, err := c.NewClient(sys, register.Settings{Monotone: true, Trace: log, OpTimeout: 20 * time.Millisecond, Retries: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()

	if err := pc.Write(0, 1.0); err != nil {
		t.Fatalf("warm-up write: %v", err)
	}
	c.Server(0).Crash()
	for i := 0; i < 15; i++ {
		reg := msg.RegisterID(i % 4)
		if err := pc.Write(reg, float64(i)); err != nil {
			t.Fatalf("write %d with a crashed replica: %v", i, err)
		}
		if _, err := pc.Read(reg); err != nil {
			t.Fatalf("read %d with a crashed replica: %v", i, err)
		}
	}
	c.Server(0).Recover()
	if _, err := pc.Read(0); err != nil {
		t.Fatalf("read after recovery: %v", err)
	}

	ops := log.Ops()
	if err := trace.CheckPipelinedWellFormed(ops); err != nil {
		t.Fatalf("pipelined well-formedness under crashes: %v", err)
	}
	if err := trace.CheckReadsFrom(ops); err != nil {
		t.Fatalf("[R2] under crashes: %v", err)
	}
	if err := trace.CheckMonotone(ops); err != nil {
		t.Fatalf("[R4] under crashes: %v", err)
	}
}

// TestPipeClientSupportsMaskingAndRepair: with operations in flight at once,
// masked reads defeat a Byzantine replica and repaired reads push the
// freshest value back.
func TestPipeClientSupportsMaskingAndRepair(t *testing.T) {
	c := pipeTestCluster(t, 5, nil)
	w, err := c.NewClient(quorum.NewSingleton(5, 0), register.Settings{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for reg := msg.RegisterID(0); reg < 4; reg++ {
		if err := w.Write(reg, "honest"); err != nil {
			t.Fatal(err)
		}
	}
	repair, err := c.NewClient(quorum.NewAll(5), register.Settings{ReadRepair: true})
	if err != nil {
		t.Fatal(err)
	}
	defer repair.Close()
	if err := waitAll(repair.ReadAsync, 4); err != nil {
		t.Fatal(err)
	}
	if got := repair.Keyspace().Shard(0).Engine().Repairs(); got != 16 {
		t.Fatalf("repairs = %d, want 16 (four stale members on each of four registers)", got)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s := 0; s < 5; s++ {
		for reg := msg.RegisterID(0); reg < 4; reg++ {
			for c.Server(s).Get(reg).Val != "honest" { // the repairs are fire-and-forget
				if time.Now().After(deadline) {
					t.Fatalf("server %d register %d never repaired", s, reg)
				}
				time.Sleep(time.Millisecond)
			}
		}
	}

	c.SetByzantine(4, "EVIL")
	masked, err := c.NewClient(quorum.NewAll(5), register.Settings{Masking: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer masked.Close()
	if err := waitAll(masked.ReadAsync, 4); err != nil {
		t.Fatal(err)
	}
}

// waitAll submits one operation per register 0..n-1 through submit, all in
// flight at once, and checks each returns the honest value.
func waitAll(submit func(msg.RegisterID) *register.PendingOp, n int) error {
	ops := make([]*register.PendingOp, n)
	for reg := range ops {
		ops[reg] = submit(msg.RegisterID(reg))
	}
	for reg, op := range ops {
		tag, err := op.Wait()
		if err != nil {
			return err
		}
		if tag.Val != "honest" {
			return fmt.Errorf("register %d read %v, want the honest value", reg, tag.Val)
		}
	}
	return nil
}

// TestPipeClientCloseFailsPending verifies closing a client releases the
// waiters of its asynchronous operations.
func TestPipeClientCloseFailsPending(t *testing.T) {
	c := pipeTestCluster(t, 5, nil)
	sys := quorum.NewMajority(5)
	pc, err := c.NewClient(sys, register.Settings{})
	if err != nil {
		t.Fatal(err)
	}
	// Crash everything so the op can never complete, then close.
	for i := 0; i < 5; i++ {
		c.Server(i).Crash()
	}
	op := pc.ReadAsync(0)
	pc.Close()
	done := make(chan error, 1)
	go func() { _, err := op.Wait(); done <- err }()
	select {
	case err := <-done:
		if err == nil {
			t.Fatalf("pending op on closed client succeeded")
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("pending op not released by Close")
	}
}
