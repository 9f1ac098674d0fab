package semiring

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"probquorum/internal/aco"
	"probquorum/internal/graph"
)

func TestMinPlusLaws(t *testing.T) {
	s := MinPlus{}
	f := func(a, b, c float64) bool {
		// Commutativity and associativity of Plus; distributivity over Times.
		if s.Plus(a, b) != s.Plus(b, a) {
			return false
		}
		if s.Plus(s.Plus(a, b), c) != s.Plus(a, s.Plus(b, c)) {
			return false
		}
		lhs := s.Times(a, s.Plus(b, c))
		rhs := s.Plus(s.Times(a, b), s.Times(a, c))
		return lhs == rhs || (math.IsNaN(lhs) && math.IsNaN(rhs))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if s.Plus(3, s.Zero()) != 3 || s.Times(3, s.One()) != 3 {
		t.Fatal("identity laws broken")
	}
}

func TestBoolOrAndLaws(t *testing.T) {
	s := BoolOrAnd{}
	for _, a := range []bool{false, true} {
		if s.Plus(a, s.Zero()) != a || s.Times(a, s.One()) != a {
			t.Fatal("identity laws broken")
		}
		for _, b := range []bool{false, true} {
			if s.Plus(a, b) != (a || b) || s.Times(a, b) != (a && b) {
				t.Fatal("or/and broken")
			}
		}
	}
}

func TestMaxMinLaws(t *testing.T) {
	s := MaxMin{}
	if s.Plus(3, s.Zero()) != 3 {
		t.Fatal("Zero is not Plus identity")
	}
	if s.Times(3, s.One()) != 3 {
		t.Fatal("One is not Times identity")
	}
	if s.Plus(2, 5) != 5 || s.Times(2, 5) != 2 {
		t.Fatal("max/min broken")
	}
}

func TestAPSPFixedPointMatchesFloydWarshall(t *testing.T) {
	for _, g := range []*graph.Graph{
		graph.Chain(8), graph.Ring(7), graph.Grid2D(3, 3),
		graph.RandomSparse(12, 30, 9, 5),
	} {
		op := NewAPSP(g)
		fp, sweeps, err := aco.FixedPoint(op, 100)
		if err != nil {
			t.Fatalf("%s: %v", op.Name(), err)
		}
		want := g.APSP()
		for i := 0; i < g.N(); i++ {
			row := op.Row(fp[i])
			for j := range row {
				if row[j] != want[i][j] {
					t.Fatalf("%s: fp[%d][%d] = %v, want %v", op.Name(), i, j, row[j], want[i][j])
				}
			}
		}
		if sweeps == 0 && g.HopDiameter() > 1 {
			t.Fatalf("%s: converged in zero sweeps", op.Name())
		}
	}
}

func TestAPSPPathDoublingSweeps(t *testing.T) {
	// Synchronous iteration converges within ceil(log2 d) sweeps (one extra
	// is allowed for detecting stability).
	g := graph.Chain(34)
	op := NewAPSP(g)
	_, sweeps, err := aco.FixedPoint(op, 100)
	if err != nil {
		t.Fatal(err)
	}
	if sweeps > 6 {
		t.Fatalf("chain(34) converged in %d sweeps, bound is 6", sweeps)
	}
	if sweeps < 5 {
		t.Fatalf("chain(34) converged suspiciously fast: %d sweeps", sweeps)
	}
}

func TestClosureFixedPointMatchesReachability(t *testing.T) {
	for _, g := range []*graph.Graph{
		graph.Chain(6), graph.Ring(5), graph.RandomSparse(10, 12, 3, 8),
	} {
		op := NewClosure(g)
		fp, _, err := aco.FixedPoint(op, 100)
		if err != nil {
			t.Fatalf("%s: %v", op.Name(), err)
		}
		want := g.Reachability()
		for i := 0; i < g.N(); i++ {
			row := op.Row(fp[i])
			for j := range row {
				if row[j] != want[i][j] {
					t.Fatalf("%s: closure[%d][%d] = %v, want %v", op.Name(), i, j, row[j], want[i][j])
				}
			}
		}
	}
}

func TestWidestPathChain(t *testing.T) {
	// Chain with decreasing capacities: widest path i->j (i>j) is the
	// minimum capacity along the way.
	g := graph.New(4)
	g.AddEdge(3, 2, 5)
	g.AddEdge(2, 1, 3)
	g.AddEdge(1, 0, 4)
	op := NewWidest(g)
	fp, _, err := aco.FixedPoint(op, 100)
	if err != nil {
		t.Fatal(err)
	}
	row3 := op.Row(fp[3])
	if row3[2] != 5 || row3[1] != 3 || row3[0] != 3 {
		t.Fatalf("widest from 3 = %v", row3)
	}
	if !math.IsInf(row3[3], 1) {
		t.Fatal("self-width must be +Inf")
	}
	row0 := op.Row(fp[0])
	if row0[3] != 0 {
		t.Fatalf("unreachable width = %v, want 0", row0[3])
	}
}

func TestWidestPicksBottleneckNotShortest(t *testing.T) {
	// Two routes 0->3: short with a narrow edge, long with wide edges.
	g := graph.New(4)
	g.AddEdge(0, 3, 1)  // direct, capacity 1
	g.AddEdge(0, 1, 10) // detour, min capacity 7
	g.AddEdge(1, 2, 7)
	g.AddEdge(2, 3, 9)
	op := NewWidest(g)
	fp, _, err := aco.FixedPoint(op, 100)
	if err != nil {
		t.Fatal(err)
	}
	if got := op.Row(fp[0])[3]; got != 7 {
		t.Fatalf("widest 0->3 = %v, want 7 via the detour", got)
	}
}

func TestInitialIsCopied(t *testing.T) {
	g := graph.Chain(3)
	op := NewAPSP(g)
	v1 := op.Initial()
	op.Row(v1[0])[1] = -99
	v2 := op.Initial()
	if op.Row(v2[0])[1] == -99 {
		t.Fatal("Initial must return fresh copies")
	}
}

func TestApplyDoesNotMutateView(t *testing.T) {
	g := graph.Chain(4)
	op := NewAPSP(g)
	view := op.Initial()
	snapshot := make([][]float64, len(view))
	for i := range view {
		row := op.Row(view[i])
		cp := make([]float64, len(row))
		copy(cp, row)
		snapshot[i] = cp
	}
	op.Apply(2, view)
	for i := range view {
		row := op.Row(view[i])
		for j := range row {
			if row[j] != snapshot[i][j] {
				t.Fatal("Apply mutated its view")
			}
		}
	}
}

func TestRowPanicsOnWrongType(t *testing.T) {
	op := NewAPSP(graph.Chain(3))
	defer func() {
		if recover() == nil {
			t.Fatal("wrong value type did not panic")
		}
	}()
	op.Row("not a row")
}

func TestEqualDifferentLengths(t *testing.T) {
	op := NewAPSP(graph.Chain(3))
	if op.Equal(0, []float64{1, 2, 3}, []float64{1, 2}) {
		t.Fatal("rows of different length reported equal")
	}
}

func TestAPSPTargetAndClosureTarget(t *testing.T) {
	g := graph.Ring(5)
	apsp := NewAPSP(g)
	target := APSPTarget(g)
	fp, _, err := aco.FixedPoint(apsp, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !aco.VectorsEqual(apsp, fp, target) {
		t.Fatal("APSPTarget disagrees with the fixed point")
	}
	cl := NewClosure(g)
	ctarget := ClosureTarget(g)
	cfp, _, err := aco.FixedPoint(cl, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !aco.VectorsEqual(cl, cfp, ctarget) {
		t.Fatal("ClosureTarget disagrees with the fixed point")
	}
}

func TestWidestFixedPointMatchesReference(t *testing.T) {
	for _, g := range []*graph.Graph{
		graph.Chain(7), graph.Ring(6), graph.RandomSparse(12, 25, 9, 17),
	} {
		op := NewWidest(g)
		fp, _, err := aco.FixedPoint(op, 200)
		if err != nil {
			t.Fatalf("%s: %v", op.Name(), err)
		}
		want := g.WidestPaths()
		for i := 0; i < g.N(); i++ {
			row := op.Row(fp[i])
			for j := range row {
				if row[j] != want[i][j] {
					t.Fatalf("%s: widest[%d][%d] = %v, want %v",
						op.Name(), i, j, row[j], want[i][j])
				}
			}
		}
	}
}

func TestAllSemiringsAgreeWithReferencesUnderAsyncSchedules(t *testing.T) {
	// One sweep across all three semirings: asynchronous (bounded-delay)
	// iteration must land on the same fixed point as the exact reference.
	g := graph.RandomSparse(9, 18, 7, 23)
	sched := aco.BoundedDelaySchedule(9, 3)

	apsp := NewAPSP(g)
	last := aco.Iterate(apsp, sched, 300)
	ref := g.APSP()
	for i, v := range last[len(last)-1] {
		row := apsp.Row(v)
		for j := range row {
			if row[j] != ref[i][j] {
				t.Fatalf("apsp[%d][%d] = %v, want %v", i, j, row[j], ref[i][j])
			}
		}
	}

	wide := NewWidest(g)
	lastW := aco.Iterate(wide, sched, 300)
	refW := g.WidestPaths()
	for i, v := range lastW[len(lastW)-1] {
		row := wide.Row(v)
		for j := range row {
			if row[j] != refW[i][j] {
				t.Fatalf("widest[%d][%d] = %v, want %v", i, j, row[j], refW[i][j])
			}
		}
	}

	cl := NewClosure(g)
	lastC := aco.Iterate(cl, sched, 300)
	refC := g.Reachability()
	for i, v := range lastC[len(lastC)-1] {
		row := cl.Row(v)
		for j := range row {
			if row[j] != refC[i][j] {
				t.Fatalf("closure[%d][%d] = %v, want %v", i, j, row[j], refC[i][j])
			}
		}
	}
}

// addMulRowRef is the entry-wise fold the row kernels replace.
func addMulRowRef[T any](s Semiring[T], acc []T, a T, row []T) {
	for j := range acc {
		acc[j] = s.Plus(acc[j], s.Times(a, row[j]))
	}
}

// floatEdge draws a float from the values where math.Min and math.Max have
// special cases — ±Inf, ±0, NaNs with two payloads — and from ordinary
// weights, negative ones included, with repeats so ties occur.
func floatEdge(r *rand.Rand) float64 {
	edges := []float64{
		math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), math.NaN(),
		math.Float64frombits(0x7ff8_0000_dead_beef), -1, 1, 2.5, -3.25, 7,
	}
	if r.IntN(3) == 0 {
		return (r.Float64() - 0.5) * 100
	}
	return edges[r.IntN(len(edges))]
}

// TestAddMulRowMatchesPlusTimes: every semiring's row kernel leaves the
// accumulator bit-identical to the entry-wise Plus(acc, Times(a, x)) fold,
// on random rows dense in special values.
func TestAddMulRowMatchesPlusTimes(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	floats := []Semiring[float64]{MinPlus{}, MaxMin{}}
	for iter := 0; iter < 20000; iter++ {
		n := r.IntN(40)
		acc, row := make([]float64, n), make([]float64, n+r.IntN(3)) // the kernel reads len(acc) entries
		for j := range acc {
			acc[j] = floatEdge(r)
		}
		for j := range row {
			row[j] = floatEdge(r)
		}
		a := floatEdge(r)
		for _, s := range floats {
			got, want := append([]float64(nil), acc...), append([]float64(nil), acc...)
			s.AddMulRow(got, a, row)
			addMulRowRef(s, want, a, row)
			for j := range want {
				if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
					t.Fatalf("%s: acc %v, a %v, x %v: kernel %v (%#x), Plus/Times %v (%#x)",
						s.Name(), acc[j], a, row[j], got[j], math.Float64bits(got[j]), want[j], math.Float64bits(want[j]))
				}
			}
		}
		bacc, brow := make([]bool, n), make([]bool, n)
		for j := range bacc {
			bacc[j], brow[j] = r.IntN(2) == 0, r.IntN(2) == 0
		}
		ba := r.IntN(2) == 0
		got, want := append([]bool(nil), bacc...), append([]bool(nil), bacc...)
		BoolOrAnd{}.AddMulRow(got, ba, brow)
		addMulRowRef[bool](BoolOrAnd{}, want, ba, brow)
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("bool-or-and: acc %v, a %v, x %v: kernel %v, Plus/Times %v", bacc[j], ba, brow[j], got[j], want[j])
			}
		}
	}
}

// TestApplyMatchesEntrywiseSum: the k-outer Apply equals the entry-wise
// ⊕_k view_ik ⊗ view_kj bit for bit, on matrices with negative weights,
// infinities, signed zeros and NaNs.
func TestApplyMatchesEntrywiseSum(t *testing.T) {
	r := rand.New(rand.NewPCG(3, 4))
	for _, s := range []Semiring[float64]{MinPlus{}, MaxMin{}} {
		for iter := 0; iter < 200; iter++ {
			n := 1 + r.IntN(12)
			init := make([][]float64, n)
			for i := range init {
				init[i] = make([]float64, n)
				for j := range init[i] {
					init[i][j] = floatEdge(r)
				}
			}
			op := NewMatrixOp[float64](s, init, "random")
			view := op.Initial()
			for i := 0; i < n; i++ {
				got := op.Row(op.Apply(i, view))
				for j := 0; j < n; j++ {
					want := s.Zero()
					for k := 0; k < n; k++ {
						want = s.Plus(want, s.Times(init[i][k], init[k][j]))
					}
					if math.Float64bits(got[j]) != math.Float64bits(want) {
						t.Fatalf("%s n=%d: entry (%d,%d) = %v, entry-wise sum %v", s.Name(), n, i, j, got[j], want)
					}
				}
			}
		}
	}
}
