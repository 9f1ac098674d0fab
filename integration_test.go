package probquorum

// Cross-module integration tests: the same iterative computation run on both
// deployments of the protocol (the discrete-event simulator and TCP sockets)
// must reach the same fixed point.

import (
	"sync"
	"testing"
	"time"

	"probquorum/internal/aco"
	"probquorum/internal/apps/semiring"
	"probquorum/internal/graph"
	"probquorum/internal/msg"
	"probquorum/internal/quorum"
	"probquorum/internal/replica"
	"probquorum/internal/rng"
	"probquorum/internal/transport/tcp"
)

func TestSimAndConcurrentAgreeOnFixedPoint(t *testing.T) {
	g := graph.RandomSparse(10, 25, 7, 42)
	op := semiring.NewAPSP(g)
	target := semiring.APSPTarget(g)

	simRes, err := aco.RunSim(aco.SimConfig{
		Op: op, Target: target, Servers: 10,
		System: quorum.NewProbabilistic(10, 4), Monotone: true,
		Delay: rng.Exponential{MeanD: time.Millisecond}, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	tcpRes, err := aco.RunTCP(aco.TCPConfig{
		Op: op, Target: target, Servers: 10,
		System: quorum.NewProbabilistic(10, 4), Monotone: true, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !simRes.Converged || !tcpRes.Converged {
		t.Fatal("one runtime did not converge")
	}
	if !aco.VectorsEqual(op, simRes.Final, target) {
		t.Fatal("simulator final vector differs from the fixed point")
	}
	if !aco.VectorsEqual(op, tcpRes.Final, target) {
		t.Fatal("TCP final vector differs from the fixed point")
	}
}

// TestACOOverTCP runs the full Alg. 1 loop with real TCP clients: three
// worker goroutines, each owning some rows of a 6-vertex APSP instance,
// sharing rows through registers replicated over 6 socket servers.
func TestACOOverTCP(t *testing.T) {
	g := graph.Chain(6)
	op := semiring.NewAPSP(g)
	target := semiring.APSPTarget(g)
	m := op.M()

	initial := make(map[msg.RegisterID]msg.Value, m)
	for i, v := range op.Initial() {
		initial[msg.RegisterID(i)] = v
	}
	addrs := make([]string, 6)
	for i := range addrs {
		srv, err := tcp.Listen(replica.New(msg.NodeID(i), initial), "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		addrs[i] = srv.Addr()
	}

	part := aco.BlockPartition(m, 3)
	sys := quorum.NewProbabilistic(6, 3)
	var wg sync.WaitGroup
	errs := make([]error, 3)
	done := make(chan struct{})
	var once sync.Once
	correct := make([]bool, 3)
	var mu sync.Mutex

	for w := 0; w < 3; w++ {
		cl, err := tcp.Dial(addrs, sys, tcp.WithWriter(int32(w+1)), tcp.WithMonotone(), tcp.WithSeed(uint64(w+10)))
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		wg.Add(1)
		go func(w int, cl *tcp.Client) {
			defer wg.Done()
			owned := part.Owned(w)
			view := make([]msg.Value, m)
			for iter := 0; iter < 500; iter++ {
				select {
				case <-done:
					return
				default:
				}
				for j := 0; j < m; j++ {
					tag, err := cl.Read(msg.RegisterID(j))
					if err != nil {
						errs[w] = err
						return
					}
					view[j] = tag.Val
				}
				ok := true
				for _, comp := range owned {
					next := op.Apply(comp, view)
					if err := cl.Write(msg.RegisterID(comp), next); err != nil {
						errs[w] = err
						return
					}
					if !op.Equal(comp, next, target[comp]) {
						ok = false
					}
				}
				mu.Lock()
				correct[w] = ok
				all := correct[0] && correct[1] && correct[2]
				mu.Unlock()
				if all {
					once.Do(func() { close(done) })
					return
				}
			}
		}(w, cl)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	select {
	case <-done:
	default:
		t.Fatal("TCP workers did not converge within the iteration budget")
	}

	// Read the final matrix back through a fresh strict-quorum client and
	// compare against Floyd–Warshall.
	checker, err := tcp.Dial(addrs, quorum.NewMajority(6), tcp.WithSeed(99))
	if err != nil {
		t.Fatal(err)
	}
	defer checker.Close()
	for i := 0; i < m; i++ {
		tag, err := checker.Read(msg.RegisterID(i))
		if err != nil {
			t.Fatal(err)
		}
		if !op.Equal(i, tag.Val, target[i]) {
			t.Fatalf("row %d over TCP = %v, want %v", i, tag.Val, target[i])
		}
	}
}

// TestMonotoneAblationEndToEnd pins the repository's headline result: on
// the same workload and seeds, the monotone register variant converges in
// at most as many rounds as the non-monotone one, at every quorum size.
func TestMonotoneAblationEndToEnd(t *testing.T) {
	g := graph.Chain(12)
	op := semiring.NewAPSP(g)
	target := semiring.APSPTarget(g)
	for _, k := range []int{1, 2, 4, 8, 12} {
		var rounds [2]int
		for i, monotone := range []bool{true, false} {
			res, err := aco.RunSim(aco.SimConfig{
				Op: op, Target: target, Servers: 12,
				System: quorum.NewProbabilistic(12, k), Monotone: monotone,
				Delay: rng.Constant{D: time.Millisecond}, Seed: 7,
				MaxRounds: 3000,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Converged {
				t.Fatalf("k=%d monotone=%v did not converge", k, monotone)
			}
			rounds[i] = res.Rounds
		}
		if rounds[0] > rounds[1] {
			t.Fatalf("k=%d: monotone %d rounds, non-monotone %d", k, rounds[0], rounds[1])
		}
	}
}
