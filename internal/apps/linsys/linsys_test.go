package linsys

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"probquorum/internal/aco"
	"probquorum/internal/quorum"
	"probquorum/internal/rng"
)

func smallSystem(t *testing.T) *Jacobi {
	t.Helper()
	a := [][]float64{
		{4, 1, 0},
		{1, 5, 2},
		{0, 2, 6},
	}
	b := []float64{9, 20, 22}
	op, err := NewJacobi(a, b, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	return op
}

func TestSolveDenseKnownSystem(t *testing.T) {
	x, err := SolveDense([][]float64{{2, 1}, {1, 3}}, []float64{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	// 2x+y=5, x+3y=10 -> x=1, y=3.
	if math.Abs(x[0]-1) > 1e-12 || math.Abs(x[1]-3) > 1e-12 {
		t.Fatalf("solution = %v", x)
	}
}

func TestSolveDenseSingular(t *testing.T) {
	if _, err := SolveDense([][]float64{{1, 1}, {2, 2}}, []float64{1, 2}); err == nil {
		t.Fatal("singular matrix accepted")
	}
}

func TestSolveDenseNeedsPivoting(t *testing.T) {
	// Zero in the top-left forces a row swap.
	x, err := SolveDense([][]float64{{0, 1}, {1, 0}}, []float64{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if x[0] != 3 || x[1] != 2 {
		t.Fatalf("solution = %v", x)
	}
}

func TestJacobiValidation(t *testing.T) {
	if _, err := NewJacobi([][]float64{{1, 2}, {3, 1}}, []float64{0, 0}, 1e-6); err == nil {
		t.Fatal("non-dominant matrix accepted")
	}
	if _, err := NewJacobi([][]float64{{4}}, []float64{1, 2}, 1e-6); err == nil {
		t.Fatal("shape mismatch accepted")
	}
	if _, err := NewJacobi([][]float64{{4}}, []float64{1}, 0); err == nil {
		t.Fatal("zero tolerance accepted")
	}
	if _, err := NewJacobi([][]float64{{4, 1}}, []float64{1}, 1e-6); err == nil {
		t.Fatal("ragged matrix accepted")
	}
}

func TestFixedPointMatchesDirectSolve(t *testing.T) {
	op := smallSystem(t)
	fp, sweeps, err := aco.FixedPoint(op, 10000)
	if err != nil {
		t.Fatal(err)
	}
	want, err := op.Solve()
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(fp[i].(float64)-want[i]) > 1e-6 {
			t.Fatalf("fp[%d] = %v, want %v (sweeps=%d)", i, fp[i], want[i], sweeps)
		}
	}
}

func TestRandomDominantAlwaysAccepted(t *testing.T) {
	f := func(rawN, rawSeed uint8) bool {
		n := 2 + int(rawN%10)
		a, b := RandomDominant(n, 0.5, uint64(rawSeed))
		_, err := NewJacobi(a, b, 1e-6)
		return err == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRandomDominantDeterministic(t *testing.T) {
	a1, b1 := RandomDominant(5, 1, 42)
	a2, b2 := RandomDominant(5, 1, 42)
	for i := range a1 {
		if b1[i] != b2[i] {
			t.Fatal("rhs differs for same seed")
		}
		for j := range a1[i] {
			if a1[i][j] != a2[i][j] {
				t.Fatal("matrix differs for same seed")
			}
		}
	}
}

func TestJacobiOverRandomRegisters(t *testing.T) {
	a, b := RandomDominant(8, 1.0, 11)
	op, err := NewJacobi(a, b, 1e-6)
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
		Servers:   8,
		System:    quorum.NewProbabilistic(8, 3),
		Monotone:  true,
		Delay:     rng.Exponential{MeanD: time.Millisecond},
		Seed:      12,
		MaxRounds: 5000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("asynchronous Jacobi did not converge over monotone random registers")
	}
	for i := range target {
		if math.Abs(res.Final[i].(float64)-target[i].(float64)) > 1e-5 {
			t.Fatalf("final[%d] = %v, want ~%v", i, res.Final[i], target[i])
		}
	}
}

func TestJacobiConcurrent(t *testing.T) {
	a, b := RandomDominant(6, 1.0, 13)
	op, err := NewJacobi(a, b, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	target, err := op.Target()
	if err != nil {
		t.Fatal(err)
	}
	res, err := aco.RunTCP(aco.TCPConfig{
		Op:       op,
		Target:   target,
		Servers:  6,
		System:   quorum.NewProbabilistic(6, 2),
		Monotone: true,
		Seed:     14,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("concurrent Jacobi did not converge")
	}
}

func TestToleranceAccessor(t *testing.T) {
	op := smallSystem(t)
	if op.Tolerance() != 1e-9 {
		t.Fatalf("tolerance = %v", op.Tolerance())
	}
}
