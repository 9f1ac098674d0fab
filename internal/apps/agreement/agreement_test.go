package agreement

import (
	"math"
	"testing"
	"time"

	"probquorum/internal/aco"
	"probquorum/internal/msg"
	"probquorum/internal/quorum"
	"probquorum/internal/rng"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, 0.1); err == nil {
		t.Fatal("empty inputs accepted")
	}
	if _, err := New([]float64{1}, 0); err == nil {
		t.Fatal("zero epsilon accepted")
	}
}

func TestSynchronousHalving(t *testing.T) {
	op, err := New([]float64{0, 8}, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	hist := aco.Iterate(op, aco.SynchronousSchedule(op.M()), 3)
	// One synchronous sweep sends everyone to the midpoint 4.
	if hist[1][0].(float64) != 4 || hist[1][1].(float64) != 4 {
		t.Fatalf("after one sweep: %v", hist[1])
	}
	if Spread(hist[1]) != 0 {
		t.Fatalf("spread after sync sweep = %v", Spread(hist[1]))
	}
}

func TestBoundedDelaySpreadContracts(t *testing.T) {
	op, err := New([]float64{-3, 1, 7, 2}, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	hist := aco.Iterate(op, aco.BoundedDelaySchedule(op.M(), 2), 100)
	spread0 := Spread(hist[0])
	spreadEnd := Spread(hist[len(hist)-1])
	if spreadEnd > op.Epsilon() {
		t.Fatalf("spread did not contract: %v -> %v", spread0, spreadEnd)
	}
	// Validity: final values inside the input range.
	lo, hi := op.InputRange()
	for _, v := range hist[len(hist)-1] {
		f := v.(float64)
		if f < lo || f > hi {
			t.Fatalf("value %v escaped input range [%v, %v]", f, lo, hi)
		}
	}
}

func TestAgreementOverRandomRegistersSim(t *testing.T) {
	inputs := []float64{10, -4, 3.5, 0, 22, 7}
	op, err := New(inputs, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	res, err := aco.RunSim(aco.SimConfig{
		Op:       op,
		Servers:  6,
		System:   quorum.NewProbabilistic(6, 3),
		Monotone: true,
		Delay:    rng.Exponential{MeanD: time.Millisecond},
		Seed:     31,
		Correct:  op.Correct(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("approximate agreement did not converge")
	}
	// ε-agreement on the final register contents.
	if s := Spread(res.Final); s > 2*op.Epsilon() {
		t.Fatalf("final spread %v exceeds 2ε", s)
	}
	// Validity.
	lo, hi := op.InputRange()
	for i, v := range res.Final {
		f := v.(float64)
		if f < lo-1e-12 || f > hi+1e-12 {
			t.Fatalf("decided value %d = %v outside [%v, %v]", i, f, lo, hi)
		}
	}
}

func TestAgreementConcurrent(t *testing.T) {
	inputs := []float64{1, 2, 3, 100}
	op, err := New(inputs, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	res, err := aco.RunTCP(aco.TCPConfig{
		Op:       op,
		Servers:  4,
		System:   quorum.NewMajority(4),
		Monotone: true,
		Seed:     32,
		Correct:  op.Correct(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("concurrent agreement did not converge")
	}
}

func TestSpreadAndExtremes(t *testing.T) {
	vals := []msg.Value{3.0, -1.0, 4.0}
	if got := Spread(vals); got != 5 {
		t.Fatalf("spread = %v", got)
	}
	op, _ := New([]float64{2, 9}, 0.1)
	lo, hi := op.InputRange()
	if lo != 2 || hi != 9 {
		t.Fatalf("input range = [%v, %v]", lo, hi)
	}
	if !op.Equal(0, 1.0, 1.05) || op.Equal(0, 1.0, 1.5) {
		t.Fatal("epsilon equality wrong")
	}
}

func TestCorrectPredicate(t *testing.T) {
	op, _ := New([]float64{0, 1}, 0.5)
	correct := op.Correct()
	if !correct(nil, []msg.Value{0.5}, []msg.Value{0.4, 0.6}) {
		t.Fatal("tight view rejected")
	}
	if correct(nil, []msg.Value{0.5}, []msg.Value{0.0, 2.0}) {
		t.Fatal("wide view accepted")
	}
	if correct(nil, []msg.Value{math.Inf(1)}, []msg.Value{0.4, 0.6}) {
		t.Fatal("escaped value accepted")
	}
}
