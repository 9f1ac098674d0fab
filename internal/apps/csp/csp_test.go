package csp

import (
	"testing"
	"time"

	"probquorum/internal/aco"
	"probquorum/internal/msg"
	"probquorum/internal/quorum"
	"probquorum/internal/rng"
)

// domainOf reads a component's register value as a Domain.
func domainOf(v msg.Value) Domain { return Domain(v.(uint64)) }

func TestDomainBasics(t *testing.T) {
	d := FullDomain(5)
	if d.Size() != 5 {
		t.Fatalf("size = %d", d.Size())
	}
	if !d.Has(0) || !d.Has(4) || d.Has(5) {
		t.Fatal("membership wrong")
	}
	if got := d.Values(); len(got) != 5 || got[0] != 0 || got[4] != 4 {
		t.Fatalf("values = %v", got)
	}
	if FullDomain(64) != ^Domain(0) {
		t.Fatal("full 64-value domain wrong")
	}
}

func TestFullDomainPanics(t *testing.T) {
	for _, bad := range []int{0, -1, 65} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("FullDomain(%d) did not panic", bad)
				}
			}()
			FullDomain(bad)
		}()
	}
}

func TestInequalityChainFixedPoint(t *testing.T) {
	// x_0 < x_1 < ... < x_4 over 0..6: AC prunes domain i to [i, 2+i].
	const n, d = 5, 7
	p := InequalityChain(n, d)
	op, err := NewOperator(p)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := op.Target()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		dom := domainOf(fp[i])
		for v := 0; v < d; v++ {
			want := v >= i && v <= d-n+i
			if dom.Has(v) != want {
				t.Fatalf("var %d value %d: in=%v, want %v (domain %v)", i, v, dom.Has(v), want, dom.Values())
			}
		}
	}
}

func TestInfeasibleChainEmptiesDomains(t *testing.T) {
	// 5 strictly increasing variables over only 3 values: no solution; arc
	// consistency must wipe the domains.
	p := InequalityChain(5, 3)
	op, err := NewOperator(p)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := op.Target()
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range fp {
		if domainOf(v) != 0 {
			t.Fatalf("var %d domain %v, want empty", i, domainOf(v).Values())
		}
	}
}

func TestAllDifferentRingIsAlreadyConsistent(t *testing.T) {
	// With domain size >= 2, every value has support: AC prunes nothing.
	p := AllDifferentRing(4, 3)
	op, err := NewOperator(p)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := op.Target()
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range fp {
		if domainOf(v) != FullDomain(3) {
			t.Fatalf("var %d pruned to %v", i, domainOf(v).Values())
		}
	}
}

func TestDistanceChainPropagation(t *testing.T) {
	// 4 variables over 0..9, |x_i - x_{i+1}| <= 2, ends pinned to 0 and 6.
	p := DistanceChain(4, 10, 2, 0, 6)
	op, err := NewOperator(p)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := op.Target()
	if err != nil {
		t.Fatal(err)
	}
	// Interior variable 1: within 2 of 0 => {0,1,2}; must also reach 6 in
	// two more hops of <= 2 each => >= 2. So {2}.
	if got := domainOf(fp[1]).Values(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("var 1 domain = %v, want [2]", got)
	}
	if got := domainOf(fp[2]).Values(); len(got) != 1 || got[0] != 4 {
		t.Fatalf("var 2 domain = %v, want [4]", got)
	}
}

func TestValidate(t *testing.T) {
	if err := (&Problem{}).Validate(); err == nil {
		t.Fatal("empty problem accepted")
	}
	bad := &Problem{
		Domains:     []Domain{FullDomain(2), FullDomain(2)},
		Constraints: []Constraint{{X: 0, Y: 5, Allowed: func(a, b int) bool { return true }}},
	}
	if err := bad.Validate(); err == nil {
		t.Fatal("out-of-range variable accepted")
	}
	unary := &Problem{
		Domains:     []Domain{FullDomain(2)},
		Constraints: []Constraint{{X: 0, Y: 0, Allowed: func(a, b int) bool { return true }}},
	}
	if err := unary.Validate(); err == nil {
		t.Fatal("unary constraint accepted")
	}
	nilRel := &Problem{
		Domains:     []Domain{FullDomain(2), FullDomain(2)},
		Constraints: []Constraint{{X: 0, Y: 1}},
	}
	if err := nilRel.Validate(); err == nil {
		t.Fatal("nil relation accepted")
	}
}

func TestApplyOnlyShrinks(t *testing.T) {
	p := InequalityChain(4, 6)
	op, err := NewOperator(p)
	if err != nil {
		t.Fatal(err)
	}
	view := op.Initial()
	for i := 0; i < op.M(); i++ {
		before := domainOf(view[i])
		after := domainOf(op.Apply(i, view))
		if after&^before != 0 {
			t.Fatalf("Apply added values to variable %d", i)
		}
	}
}

func TestCSPOverRandomRegisters(t *testing.T) {
	p := InequalityChain(6, 8)
	op, err := NewOperator(p)
	if err != nil {
		t.Fatal(err)
	}
	target, err := op.Target()
	if err != nil {
		t.Fatal(err)
	}
	res, err := aco.RunSim(aco.SimConfig{
		Op:       op,
		Target:   target,
		Servers:  6,
		System:   quorum.NewProbabilistic(6, 2),
		Monotone: true,
		Delay:    rng.Exponential{MeanD: time.Millisecond},
		Seed:     21,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("distributed arc consistency did not converge")
	}
	for i := range target {
		if domainOf(res.Final[i]) != domainOf(target[i]) {
			t.Fatalf("final[%d] = %v, want %v", i,
				domainOf(res.Final[i]).Values(), domainOf(target[i]).Values())
		}
	}
}

func TestCSPConcurrent(t *testing.T) {
	p := DistanceChain(5, 12, 3, 1, 9)
	op, err := NewOperator(p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := aco.RunTCP(aco.TCPConfig{
		Op:       op,
		Servers:  5,
		System:   quorum.NewMajority(5),
		Monotone: true,
		Seed:     22,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("concurrent arc consistency did not converge")
	}
}

func TestRandomProblemDeterministic(t *testing.T) {
	a := RandomProblem(6, 5, 0.5, 0.6, 11)
	b := RandomProblem(6, 5, 0.5, 0.6, 11)
	if len(a.Constraints) != len(b.Constraints) {
		t.Fatal("constraint count differs for same seed")
	}
	opA, err := NewOperator(a)
	if err != nil {
		t.Fatal(err)
	}
	opB, err := NewOperator(b)
	if err != nil {
		t.Fatal(err)
	}
	fpA, err := opA.Target()
	if err != nil {
		t.Fatal(err)
	}
	fpB, err := opB.Target()
	if err != nil {
		t.Fatal(err)
	}
	for i := range fpA {
		if domainOf(fpA[i]) != domainOf(fpB[i]) {
			t.Fatal("same seed produced different fixed points")
		}
	}
}

func TestRandomProblemFixedPointScheduleIndependent(t *testing.T) {
	// The Üresin–Dubois guarantee on the finite lattice: every admissible
	// schedule reaches the same arc-consistent fixed point.
	for seed := uint64(1); seed <= 5; seed++ {
		p := RandomProblem(8, 6, 0.4, 0.6, seed)
		op, err := NewOperator(p)
		if err != nil {
			t.Fatal(err)
		}
		fp, err := op.Target()
		if err != nil {
			t.Fatal(err)
		}
		schedules := map[string]aco.Schedule{
			"round-robin":   aco.RoundRobinSchedule(op.M()),
			"bounded-delay": aco.BoundedDelaySchedule(op.M(), 4),
		}
		for name, s := range schedules {
			hist := aco.Iterate(op, s, 400)
			last := hist[len(hist)-1]
			for i := range fp {
				if domainOf(last[i]) != domainOf(fp[i]) {
					t.Fatalf("seed %d, %s: variable %d converged to %v, want %v",
						seed, name, i, domainOf(last[i]).Values(), domainOf(fp[i]).Values())
				}
			}
		}
	}
}

func TestRandomProblemOverRandomRegisters(t *testing.T) {
	p := RandomProblem(7, 6, 0.5, 0.65, 3)
	op, err := NewOperator(p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := aco.RunSim(aco.SimConfig{
		Op:       op,
		Servers:  7,
		System:   quorum.NewProbabilistic(7, 2),
		Monotone: true,
		Delay:    rng.Exponential{MeanD: time.Millisecond},
		Seed:     8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("random CSP did not converge over random registers")
	}
}
