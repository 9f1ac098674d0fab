package cluster

import (
	"sync"
	"testing"

	"probquorum/internal/quorum"
	"probquorum/internal/register"
	"probquorum/internal/trace"
)

// TestReadAtomicSatisfiesAtomicity drives a writer and several ABD readers
// concurrently over strict quorums and checks the global trace for new-old
// inversions.
func TestReadAtomicSatisfiesAtomicity(t *testing.T) {
	c := newTestCluster(t, 5, nil)
	log := &trace.Log{}
	sys := quorum.NewMajority(5)
	w, err := c.NewClient(sys, register.Settings{Trace: log})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errCh := make(chan error, 4)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; i <= 60; i++ {
			if err := w.Write(0, i); err != nil {
				errCh <- err
				return
			}
		}
	}()
	for r := 0; r < 3; r++ {
		cl, err := c.NewClient(sys, register.Settings{Trace: log})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(cl *Client) {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				if _, err := cl.ReadAtomic(0); err != nil {
					errCh <- err
					return
				}
			}
		}(cl)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	ops := log.Ops()
	if err := trace.CheckWellFormed(ops); err != nil {
		t.Fatal(err)
	}
	if err := trace.CheckReadsFrom(ops); err != nil {
		t.Fatal(err)
	}
	if err := trace.CheckAtomic(ops); err != nil {
		t.Fatalf("ABD reads over strict quorums violated atomicity: %v", err)
	}
}

// TestPlainReadsViolateAtomicity shows the checker discriminates: plain
// probabilistic reads with tiny quorums produce new-old inversions.
func TestPlainReadsViolateAtomicity(t *testing.T) {
	c := newTestCluster(t, 8, nil)
	log := &trace.Log{}
	w, err := c.NewClient(quorum.NewProbabilistic(8, 2), register.Settings{Trace: log})
	if err != nil {
		t.Fatal(err)
	}
	r1, err := c.NewClient(quorum.NewProbabilistic(8, 1), register.Settings{Trace: log})
	if err != nil {
		t.Fatal(err)
	}
	violated := false
	for round := 0; round < 200 && !violated; round++ {
		if err := w.Write(0, round); err != nil {
			t.Fatal(err)
		}
		if _, err := r1.Read(0); err != nil {
			t.Fatal(err)
		}
		violated = trace.CheckAtomic(log.Ops()) != nil
	}
	if !violated {
		t.Fatal("200 rounds of k=1 plain reads never produced a new-old inversion; checker not discriminating")
	}
}

// TestReadAtomicSpreadsValues confirms the write-back side effect: after an
// atomic read, a full quorum holds the returned value.
func TestReadAtomicSpreadsValues(t *testing.T) {
	c := newTestCluster(t, 5, nil)
	w, err := c.NewClient(quorum.NewSingleton(5, 0), register.Settings{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(0, "spread"); err != nil {
		t.Fatal(err)
	}
	r, err := c.NewClient(quorum.NewAll(5), register.Settings{})
	if err != nil {
		t.Fatal(err)
	}
	tag, err := r.ReadAtomic(0)
	if err != nil {
		t.Fatal(err)
	}
	if tag.Val != "spread" {
		t.Fatalf("atomic read = %v", tag.Val)
	}
	for s := 0; s < 5; s++ {
		if got := c.Server(s).Get(0); got.Val != "spread" {
			t.Fatalf("server %d missed the write-back: %+v", s, got)
		}
	}
}
