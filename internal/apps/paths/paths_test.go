package paths

import (
	"math"
	"testing"
	"time"

	"probquorum/internal/aco"
	"probquorum/internal/graph"
	"probquorum/internal/quorum"
	"probquorum/internal/rng"
)

func TestFixedPointMatchesBellmanFord(t *testing.T) {
	for _, g := range []*graph.Graph{
		graph.Chain(10), graph.Ring(8), graph.RandomSparse(15, 30, 7, 4),
	} {
		for src := 0; src < g.N(); src += 3 {
			op, err := NewSSSP(g, src)
			if err != nil {
				t.Fatal(err)
			}
			fp, _, err := aco.FixedPoint(op, 0)
			if err != nil {
				t.Fatal(err)
			}
			want := g.SSSP(src)
			for v := 0; v < g.N(); v++ {
				if fp[v].(float64) != want[v] {
					t.Fatalf("%s: d[%d] = %v, want %v", op.Name(), v, fp[v], want[v])
				}
			}
		}
	}
}

func TestSSSPUnreachable(t *testing.T) {
	g := graph.New(3)
	g.AddEdge(0, 1, 2)
	op, err := NewSSSP(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	fp, _, err := aco.FixedPoint(op, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(fp[2].(float64), 1) {
		t.Fatalf("unreachable vertex distance = %v", fp[2])
	}
}

func TestNewSSSPValidation(t *testing.T) {
	g := graph.Chain(3)
	if _, err := NewSSSP(g, -1); err == nil {
		t.Fatal("negative source accepted")
	}
	if _, err := NewSSSP(g, 3); err == nil {
		t.Fatal("out-of-range source accepted")
	}
	neg := graph.New(2)
	neg.AddEdge(0, 1, -1)
	if _, err := NewSSSP(neg, 0); err == nil {
		t.Fatal("negative weight accepted")
	}
}

func TestSSSPOverRandomRegistersSim(t *testing.T) {
	g := graph.RandomSparse(12, 20, 5, 6)
	op, err := NewSSSP(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := aco.RunSim(aco.SimConfig{
		Op:       op,
		Target:   Target(g, 0),
		Servers:  12,
		System:   quorum.NewProbabilistic(12, 4),
		Monotone: true,
		Delay:    rng.Exponential{MeanD: time.Millisecond},
		Seed:     9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("SSSP did not converge over monotone random registers")
	}
	// The final register contents must be the exact distances.
	want := g.SSSP(0)
	for v := 0; v < g.N(); v++ {
		if res.Final[v].(float64) != want[v] {
			t.Fatalf("final[%d] = %v, want %v", v, res.Final[v], want[v])
		}
	}
}

func TestSSSPOverRandomRegistersNonMonotone(t *testing.T) {
	g := graph.Chain(8)
	op, err := NewSSSP(g, 7)
	if err != nil {
		t.Fatal(err)
	}
	res, err := aco.RunSim(aco.SimConfig{
		Op:      op,
		Target:  Target(g, 7),
		Servers: 8,
		System:  quorum.NewProbabilistic(8, 3),
		Delay:   rng.Constant{D: time.Millisecond},
		Seed:    10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("SSSP did not converge over non-monotone random registers")
	}
}

func TestTargetVector(t *testing.T) {
	g := graph.Chain(5)
	tgt := Target(g, 4)
	// Distances from the source 4 down the chain: 4,3,2,1,0.
	for i := 0; i < 5; i++ {
		if tgt[i].(float64) != float64(4-i) {
			t.Fatalf("target[%d] = %v", i, tgt[i])
		}
	}
}

func TestSSSPConcurrent(t *testing.T) {
	g := graph.RandomSparse(8, 16, 4, 2)
	op, err := NewSSSP(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := aco.RunTCP(aco.TCPConfig{
		Op:       op,
		Target:   Target(g, 0),
		Servers:  8,
		System:   quorum.NewProbabilistic(8, 3),
		Monotone: true,
		Seed:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("concurrent SSSP did not converge")
	}
	want := g.SSSP(0)
	for v := 0; v < g.N(); v++ {
		if res.Final[v].(float64) != want[v] {
			t.Fatalf("final[%d] = %v, want %v", v, res.Final[v], want[v])
		}
	}
}
