// Package semiring implements the family of matrix-iteration ACOs the
// paper's application class contains: path problems expressed over an
// idempotent semiring. One operator definition yields
//
//   - all-pairs shortest paths over (min, +) — the paper's Section 7
//     workload,
//   - transitive closure over (∨, ∧) — named in the paper's introduction,
//   - widest (maximum-bottleneck) paths over (max, min).
//
// The iterated function is F(x)_ij = ⊕_k x_ik ⊗ x_kj — exactly the paper's
// min_k { x_ik + x_kj } for (min, +). With the diagonal initialized to the
// semiring's One, F is an asynchronously contracting operator on vectors
// between the initial matrix and the exact solution, and synchronous
// iteration converges in ⌈log2 d⌉ sweeps for diameter d (path doubling).
package semiring

import (
	"fmt"
	"math"

	"probquorum/internal/aco"
	"probquorum/internal/graph"
	"probquorum/internal/msg"
)

// Semiring is an idempotent semiring over T: Plus selects the better of two
// path values, Times concatenates path segments.
type Semiring[T any] interface {
	Plus(a, b T) T
	Times(a, b T) T
	// Zero is Plus's identity — the value of "no path".
	Zero() T
	// One is Times's identity — the value of the empty path (the diagonal).
	One() T
	// AddMulRow folds one term of a matrix product into a row: acc[j] =
	// Plus(acc[j], Times(a, row[j])) for every j < len(acc), bit for bit,
	// as direct arithmetic instead of two interface calls per entry.
	AddMulRow(acc []T, a T, row []T)
	Equal(a, b T) bool
	Name() string
}

// fmin is math.Min spelled out so it inlines into the row kernels: equal
// operands are equal non-zero values, which have equal bits, or zeros, where
// a set sign bit wins (Min(-0, ±0) = -0); past a NaN, -Inf still wins.
func fmin(x, y float64) float64 {
	switch {
	case x < y:
		return x
	case y < x:
		return y
	case x == y:
		return math.Float64frombits(math.Float64bits(x) | math.Float64bits(y))
	case x == negInf || y == negInf:
		return negInf
	}
	return nan
}

// fmax is math.Max the same way: between zeros a clear sign bit wins
// (Max(+0, ±0) = +0), and past a NaN +Inf does.
func fmax(x, y float64) float64 {
	switch {
	case x > y:
		return x
	case y > x:
		return y
	case x == y:
		return math.Float64frombits(math.Float64bits(x) & math.Float64bits(y))
	case x == posInf || y == posInf:
		return posInf
	}
	return nan
}

var (
	posInf, negInf = math.Inf(1), math.Inf(-1)
	nan            = math.NaN()
)

// MinPlus is the shortest-path semiring over float64 with +Inf as "no path".
type MinPlus struct{}

var _ Semiring[float64] = MinPlus{}

// Plus implements Semiring.
func (MinPlus) Plus(a, b float64) float64 { return math.Min(a, b) }

// Times implements Semiring.
func (MinPlus) Times(a, b float64) float64 { return a + b }

// AddMulRow implements Semiring.
func (MinPlus) AddMulRow(acc []float64, a float64, row []float64) {
	row = row[:len(acc)]
	for j, x := range row {
		acc[j] = fmin(acc[j], a+x)
	}
}

// Zero implements Semiring.
func (MinPlus) Zero() float64 { return math.Inf(1) }

// One implements Semiring.
func (MinPlus) One() float64 { return 0 }

// Equal implements Semiring. Weights in the experiments are small integers,
// so exact comparison is appropriate (sums of integers in float64 are
// exact far beyond the magnitudes used).
func (MinPlus) Equal(a, b float64) bool { return a == b }

// Name implements Semiring.
func (MinPlus) Name() string { return "min-plus" }

// BoolOrAnd is the reachability semiring: Plus is ∨, Times is ∧.
type BoolOrAnd struct{}

var _ Semiring[bool] = BoolOrAnd{}

// Plus implements Semiring.
func (BoolOrAnd) Plus(a, b bool) bool { return a || b }

// Times implements Semiring.
func (BoolOrAnd) Times(a, b bool) bool { return a && b }

// AddMulRow implements Semiring. A false a contributes nothing.
func (BoolOrAnd) AddMulRow(acc []bool, a bool, row []bool) {
	if !a {
		return
	}
	row = row[:len(acc)]
	for j, x := range row {
		acc[j] = acc[j] || x
	}
}

// Zero implements Semiring.
func (BoolOrAnd) Zero() bool { return false }

// One implements Semiring.
func (BoolOrAnd) One() bool { return true }

// Equal implements Semiring.
func (BoolOrAnd) Equal(a, b bool) bool { return a == b }

// Name implements Semiring.
func (BoolOrAnd) Name() string { return "bool-or-and" }

// MaxMin is the widest-path (maximum bottleneck) semiring: the value of a
// path is its minimum edge capacity and Plus keeps the best path.
type MaxMin struct{}

var _ Semiring[float64] = MaxMin{}

// Plus implements Semiring.
func (MaxMin) Plus(a, b float64) float64 { return math.Max(a, b) }

// Times implements Semiring.
func (MaxMin) Times(a, b float64) float64 { return math.Min(a, b) }

// AddMulRow implements Semiring.
func (MaxMin) AddMulRow(acc []float64, a float64, row []float64) {
	row = row[:len(acc)]
	for j, x := range row {
		acc[j] = fmax(acc[j], fmin(a, x))
	}
}

// Zero implements Semiring.
func (MaxMin) Zero() float64 { return 0 }

// One implements Semiring.
func (MaxMin) One() float64 { return math.Inf(1) }

// Equal implements Semiring.
func (MaxMin) Equal(a, b float64) bool { return a == b }

// Name implements Semiring.
func (MaxMin) Name() string { return "max-min" }

// MatrixOp is the matrix-iteration ACO over a semiring. Component i is row
// i of the matrix, so M() equals the vertex count and the paper's Alg. 1
// with p = n processes gives each process one row — exactly the Section 7
// setup.
type MatrixOp[T any] struct {
	s    Semiring[T]
	init [][]T
	name string
}

var _ aco.Operator = (*MatrixOp[float64])(nil)

// NewMatrixOp returns the iteration for the given initial matrix. The
// diagonal must already be the semiring's One (the constructors below
// guarantee it); it is what lets F keep already-found paths.
func NewMatrixOp[T any](s Semiring[T], init [][]T, name string) *MatrixOp[T] {
	n := len(init)
	for i, row := range init {
		if len(row) != n {
			panic(fmt.Sprintf("semiring: row %d has %d entries, want %d", i, len(row), n))
		}
	}
	return &MatrixOp[T]{s: s, init: init, name: name}
}

// M implements aco.Operator.
func (o *MatrixOp[T]) M() int { return len(o.init) }

// Name implements aco.Operator.
func (o *MatrixOp[T]) Name() string { return o.name }

// Initial implements aco.Operator; each component value is a copied row.
func (o *MatrixOp[T]) Initial() []msg.Value {
	out := make([]msg.Value, len(o.init))
	for i, row := range o.init {
		cp := make([]T, len(row))
		copy(cp, row)
		out[i] = cp
	}
	return out
}

// Row extracts component i's value from a vector, with a checked assertion:
// a wrong dynamic type is a programming error in the harness and should
// fail loudly.
func (o *MatrixOp[T]) Row(v msg.Value) []T {
	row, ok := v.([]T)
	if !ok {
		panic(fmt.Sprintf("semiring: component has type %T, want []%T", v, *new(T)))
	}
	return row
}

// Apply implements aco.Operator: new_ij = ⊕_k view_ik ⊗ view_kj. The sum
// runs k-outer, so each row of the view is asserted once and folded in by
// the semiring's row kernel; every entry still accumulates its terms in
// ascending k, so the result is bit-identical to the entry-by-entry sum.
func (o *MatrixOp[T]) Apply(i int, view []msg.Value) msg.Value {
	rowI := o.Row(view[i])
	out := make([]T, len(o.init))
	zero := o.s.Zero()
	for j := range out {
		out[j] = zero
	}
	for k := range out {
		o.s.AddMulRow(out, rowI[k], o.Row(view[k]))
	}
	return out
}

// Equal implements aco.Operator.
func (o *MatrixOp[T]) Equal(_ int, a, b msg.Value) bool {
	ra, rb := o.Row(a), o.Row(b)
	if len(ra) != len(rb) {
		return false
	}
	for j := range ra {
		if !o.s.Equal(ra[j], rb[j]) {
			return false
		}
	}
	return true
}

// NewAPSP returns the all-pairs-shortest-path iteration for g: the paper's
// Section 7 application. The initial matrix is g's adjacency matrix (0 on
// the diagonal, +Inf for absent edges).
func NewAPSP(g *graph.Graph) *MatrixOp[float64] {
	return NewMatrixOp[float64](MinPlus{}, g.AdjacencyMatrix(), fmt.Sprintf("apsp(n=%d)", g.N()))
}

// APSPTarget returns the exact APSP fixed point for g as an operator vector.
func APSPTarget(g *graph.Graph) []msg.Value {
	d := g.APSP()
	out := make([]msg.Value, len(d))
	for i, row := range d {
		out[i] = row
	}
	return out
}

// NewClosure returns the transitive-closure iteration for g.
func NewClosure(g *graph.Graph) *MatrixOp[bool] {
	n := g.N()
	init := make([][]bool, n)
	for i := range init {
		init[i] = make([]bool, n)
		init[i][i] = true
	}
	for u := 0; u < n; u++ {
		for _, e := range g.Edges(u) {
			init[u][e.To] = true
		}
	}
	return NewMatrixOp[bool](BoolOrAnd{}, init, fmt.Sprintf("closure(n=%d)", g.N()))
}

// ClosureTarget returns the exact reachability matrix for g as an operator
// vector.
func ClosureTarget(g *graph.Graph) []msg.Value {
	r := g.Reachability()
	out := make([]msg.Value, len(r))
	for i, row := range r {
		out[i] = row
	}
	return out
}

// NewWidest returns the widest-path (maximum-bottleneck) iteration for g,
// interpreting edge weights as capacities. The diagonal is +Inf (a vertex
// reaches itself with unbounded capacity); absent edges have capacity 0.
func NewWidest(g *graph.Graph) *MatrixOp[float64] {
	n := g.N()
	init := make([][]float64, n)
	for i := range init {
		init[i] = make([]float64, n)
		init[i][i] = math.Inf(1)
	}
	for u := 0; u < n; u++ {
		for _, e := range g.Edges(u) {
			if e.W > init[u][e.To] && u != e.To {
				init[u][e.To] = e.W
			}
		}
	}
	return NewMatrixOp[float64](MaxMin{}, init, fmt.Sprintf("widest(n=%d)", g.N()))
}
