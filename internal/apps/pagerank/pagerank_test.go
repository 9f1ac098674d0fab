package pagerank

import (
	"math"
	"testing"
	"time"

	"probquorum/internal/aco"
	"probquorum/internal/graph"
	"probquorum/internal/quorum"
	"probquorum/internal/rng"
)

func TestNewValidation(t *testing.T) {
	g := graph.Ring(4)
	for _, d := range []float64{0, 1, -0.5, 1.5} {
		if _, err := New(g, d, 1e-9); err == nil {
			t.Fatalf("damping %v accepted", d)
		}
	}
	if _, err := New(g, 0.85, 0); err == nil {
		t.Fatal("zero tolerance accepted")
	}
}

func TestRingIsUniform(t *testing.T) {
	// On a symmetric ring every page has the same rank 1/n.
	g := graph.Ring(6)
	op, err := New(g, 0.85, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	target, err := op.Target()
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range target {
		if math.Abs(v.(float64)-1.0/6) > 1e-10 {
			t.Fatalf("rank[%d] = %v, want 1/6", i, v)
		}
	}
}

func TestScoresSumToOne(t *testing.T) {
	g := graph.RandomSparse(15, 40, 1, 9)
	op, err := New(g, 0.85, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	target, err := op.Target()
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, v := range target {
		sum += v.(float64)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("ranks sum to %v", sum)
	}
}

func TestFixedPointMatchesDenseSolve(t *testing.T) {
	// Two independent paths to the answer: damped iteration (FixedPoint)
	// and Gaussian elimination (Target).
	g := graph.RandomSparse(12, 30, 1, 4)
	op, err := New(g, 0.85, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	fp, _, err := aco.FixedPoint(op, 100000)
	if err != nil {
		t.Fatal(err)
	}
	target, err := op.Target()
	if err != nil {
		t.Fatal(err)
	}
	for i := range target {
		if math.Abs(fp[i].(float64)-target[i].(float64)) > 1e-9 {
			t.Fatalf("rank[%d]: iterated %v vs solved %v", i, fp[i], target[i])
		}
	}
}

func TestDanglingNodesHandled(t *testing.T) {
	// A sink page: its mass must be redistributed, keeping the sum at 1.
	g := graph.New(3)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	// Page 2 dangles.
	op, err := New(g, 0.85, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	target, err := op.Target()
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, v := range target {
		sum += v.(float64)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("ranks with dangling node sum to %v", sum)
	}
	// The chain end accumulates the most rank.
	if target[2].(float64) <= target[0].(float64) {
		t.Fatal("sink page should outrank the source")
	}
}

func TestAuthorityHub(t *testing.T) {
	// A star: every page links to page 0; page 0 links back to page 1.
	g := graph.New(5)
	for i := 1; i < 5; i++ {
		g.AddEdge(i, 0, 1)
	}
	g.AddEdge(0, 1, 1)
	op, err := New(g, 0.85, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	target, err := op.Target()
	if err != nil {
		t.Fatal(err)
	}
	r0 := target[0].(float64)
	for i := 2; i < 5; i++ {
		if r0 <= target[i].(float64) {
			t.Fatalf("hub rank %v not above leaf rank %v", r0, target[i])
		}
	}
}

func TestPageRankOverRandomRegisters(t *testing.T) {
	g := graph.RandomSparse(10, 25, 1, 7)
	op, err := New(g, 0.85, 1e-7)
	if err != nil {
		t.Fatal(err)
	}
	target, err := op.Target()
	if err != nil {
		t.Fatal(err)
	}
	res, err := aco.RunSim(aco.SimConfig{
		Op:        op,
		Target:    target,
		Servers:   10,
		System:    quorum.NewProbabilistic(10, 3),
		Monotone:  true,
		Delay:     rng.Exponential{MeanD: time.Millisecond},
		Seed:      5,
		MaxRounds: 5000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("asynchronous PageRank did not converge over random registers")
	}
	for i := range target {
		if math.Abs(res.Final[i].(float64)-target[i].(float64)) > 1e-5 {
			t.Fatalf("final[%d] = %v, want ~%v", i, res.Final[i], target[i])
		}
	}
}

func TestPageRankConcurrent(t *testing.T) {
	g := graph.RandomSparse(8, 20, 1, 8)
	op, err := New(g, 0.85, 1e-7)
	if err != nil {
		t.Fatal(err)
	}
	res, err := aco.RunTCP(aco.TCPConfig{
		Op:       op,
		Servers:  8,
		System:   quorum.NewProbabilistic(8, 3),
		Monotone: true,
		Seed:     6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("concurrent PageRank did not converge")
	}
}
