package cluster

import (
	"sync"
	"testing"

	"probquorum/internal/msg"
	"probquorum/internal/quorum"
	"probquorum/internal/register"
)

// TestMultiWriterConcurrentConvergence hammers one register with several
// concurrent multi-writer clients over strict quorums and checks that
// (1) all clients eventually agree on a single final value, and (2) that
// value is one of the written ones with the globally maximal timestamp.
func TestMultiWriterConcurrentConvergence(t *testing.T) {
	c := newTestCluster(t, 7, nil)
	const writers = 5
	const writesEach = 30
	sys := quorum.NewMajority(7)

	var wg sync.WaitGroup
	errCh := make(chan error, writers)
	clients := make([]*Client, writers)
	for w := 0; w < writers; w++ {
		cl, err := c.NewClient(sys, register.Settings{})
		if err != nil {
			t.Fatal(err)
		}
		clients[w] = cl
		wg.Add(1)
		go func(w int, cl *Client) {
			defer wg.Done()
			for i := 0; i < writesEach; i++ {
				if _, err := cl.WriteMulti(0, [2]int{w, i}); err != nil {
					errCh <- err
					return
				}
			}
		}(w, cl)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

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
	// The final value is a real write (a [writer, i] pair in range).
	pair, ok := first.Val.([2]int)
	if !ok || pair[0] < 0 || pair[0] >= writers || pair[1] < 0 || pair[1] >= writesEach {
		t.Fatalf("final value %v is not a written pair", first.Val)
	}
	// And its timestamp dominates every replica's stored timestamp.
	for s := 0; s < 7; s++ {
		if first.TS.Less(c.Server(s).Get(0).TS) {
			t.Fatalf("replica %d holds a newer timestamp than the agreed read", s)
		}
	}
}

// TestMultiWriterTimestampsAreUnique checks that concurrent multi-writer
// writes never produce duplicate (seq, writer) pairs — writer ids break
// ties, so every applied write has a distinct timestamp.
func TestMultiWriterTimestampsAreUnique(t *testing.T) {
	c := newTestCluster(t, 5, nil)
	sys := quorum.NewMajority(5)
	const writers = 4
	var mu sync.Mutex
	seen := make(map[msg.Timestamp]bool)
	var wg sync.WaitGroup
	errCh := make(chan error, writers)
	for w := 0; w < writers; w++ {
		cl, err := c.NewClient(sys, register.Settings{})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(cl *Client) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				ts, err := cl.WriteMulti(0, i)
				if err != nil {
					errCh <- err
					return
				}
				mu.Lock()
				if seen[ts] {
					mu.Unlock()
					errCh <- errDuplicateTS
					return
				}
				seen[ts] = true
				mu.Unlock()
			}
		}(cl)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

var errDuplicateTS = errTS{}

type errTS struct{}

func (errTS) Error() string { return "duplicate multi-writer timestamp" }
