package tcp

// Concurrent readers and writers over loopback sockets: ABD atomic reads
// racing a writer, and multi-writer writes racing each other.

import (
	"fmt"
	"sync"
	"testing"

	"probquorum/internal/msg"
	"probquorum/internal/quorum"
	"probquorum/internal/trace"
)

// runAll runs one goroutine per function and fails the test with the first
// error any of them returns.
func runAll(t *testing.T, fns ...func() error) {
	t.Helper()
	errs := make(chan error, len(fns))
	var wg sync.WaitGroup
	for _, fn := range fns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- fn()
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestReadAtomicSatisfiesAtomicity drives a writer and several ABD readers
// concurrently over strict quorums and checks the global trace for new-old
// inversions.
func TestReadAtomicSatisfiesAtomicity(t *testing.T) {
	addrs := startCluster(t, 5, map[msg.RegisterID]msg.Value{0: 0})
	log := &trace.Log{}
	sys := quorum.NewMajority(5)
	dial := func(writer int32) *Client {
		cl, err := Dial(addrs, sys, WithWriter(writer), WithSeed(uint64(writer)), WithTrace(log))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(cl.Close)
		return cl
	}
	w := dial(1)
	fns := []func() error{func() error {
		for i := 1; i <= 60; i++ {
			if err := w.Write(0, i); err != nil {
				return err
			}
		}
		return nil
	}}
	for r := 0; r < 3; r++ {
		cl := dial(int32(2 + r))
		fns = append(fns, func() error {
			for i := 0; i < 60; i++ {
				if _, err := cl.ReadAtomic(0); err != nil {
					return err
				}
			}
			return nil
		})
	}
	runAll(t, fns...)
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

// TestWriteMulti: multi-writer writes from two clients take increasing
// timestamps across writers, and the last one wins.
func TestWriteMulti(t *testing.T) {
	addrs := startCluster(t, 5, map[msg.RegisterID]msg.Value{0: "init"})
	a, err := Dial(addrs, quorum.NewMajority(5), WithWriter(1), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Dial(addrs, quorum.NewMajority(5), WithWriter(2), WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
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

// TestMultiWriterConcurrentConvergence hammers one register with several
// concurrent multi-writer clients over strict quorums and checks that
// (1) all clients eventually agree on a single final value, and (2) that
// value is one of the written ones with the globally maximal timestamp.
func TestMultiWriterConcurrentConvergence(t *testing.T) {
	const servers, writers, writesEach = 7, 5, 30
	addrs, srvs := pipeCluster(t, servers, map[msg.RegisterID]msg.Value{0: "init"})
	sys := quorum.NewMajority(servers)
	written := make(map[msg.Value]bool, writers*writesEach)
	clients := make([]*Client, writers)
	fns := make([]func() error, writers)
	for w := range clients {
		cl, err := Dial(addrs, sys, WithWriter(int32(w+1)), WithSeed(uint64(w+1)))
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		clients[w] = cl
		for i := 0; i < writesEach; i++ {
			written[fmt.Sprintf("w%d-%d", w, i)] = true
		}
		fns[w] = func() error {
			for i := 0; i < writesEach; i++ {
				if _, err := cl.WriteMulti(0, fmt.Sprintf("w%d-%d", w, i)); err != nil {
					return err
				}
			}
			return nil
		}
	}
	runAll(t, fns...)

	// Quiesced: all clients read the same tagged value through strict
	// quorums.
	first, err := clients[0].Read(0)
	if err != nil {
		t.Fatal(err)
	}
	for w := 1; w < writers; w++ {
		got, err := clients[w].Read(0)
		if err != nil {
			t.Fatal(err)
		}
		if got.TS != first.TS || got.Val != first.Val {
			t.Fatalf("clients disagree after quiescence: %v/%v vs %v/%v",
				got.TS, got.Val, first.TS, first.Val)
		}
	}
	if !written[first.Val] {
		t.Fatalf("final value %v is not a written one", first.Val)
	}
	// And its timestamp dominates every replica's stored timestamp.
	for s, srv := range srvs {
		if first.TS.Less(srv.Store().Get(0).TS) {
			t.Fatalf("replica %d holds a newer timestamp than the agreed read", s)
		}
	}
}

// TestMultiWriterTimestampsAreUnique checks that concurrent multi-writer
// writes never produce duplicate (seq, writer) pairs — writer ids break
// ties, so every applied write has a distinct timestamp.
func TestMultiWriterTimestampsAreUnique(t *testing.T) {
	addrs := startCluster(t, 5, map[msg.RegisterID]msg.Value{0: "init"})
	sys := quorum.NewMajority(5)
	const writers = 4
	var mu sync.Mutex
	seen := make(map[msg.Timestamp]bool)
	fns := make([]func() error, writers)
	for w := range fns {
		cl, err := Dial(addrs, sys, WithWriter(int32(w+1)), WithSeed(uint64(w+1)))
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		fns[w] = func() error {
			for i := 0; i < 25; i++ {
				ts, err := cl.WriteMulti(0, i)
				if err != nil {
					return err
				}
				mu.Lock()
				dup := seen[ts]
				seen[ts] = true
				mu.Unlock()
				if dup {
					return fmt.Errorf("duplicate multi-writer timestamp %v", ts)
				}
			}
			return nil
		}
	}
	runAll(t, fns...)
}
