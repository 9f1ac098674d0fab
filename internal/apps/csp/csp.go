// Package csp implements distributed arc consistency for binary constraint
// satisfaction problems as an ACO — "constraint satisfaction" from the
// paper's headline application list. Component i is variable i's domain,
// represented as a 64-bit set and carried in its register as a plain uint64,
// which the wire encodes; the operator removes values that have no support
// in some neighbor's (possibly stale) domain. Domains only shrink,
// so the iteration is contracting on the finite lattice of domain vectors
// and its fixed point is the largest arc-consistent domain assignment.
package csp

import (
	"fmt"
	"math/bits"
	"math/rand/v2"

	"probquorum/internal/aco"
	"probquorum/internal/msg"
)

// MaxDomain is the largest representable domain size (values 0..63).
const MaxDomain = 64

// Domain is a set of values 0..63 as a bitmask.
type Domain uint64

// FullDomain returns the domain {0, ..., size-1}.
func FullDomain(size int) Domain {
	if size <= 0 || size > MaxDomain {
		panic(fmt.Sprintf("csp: domain size %d out of range", size))
	}
	if size == MaxDomain {
		return ^Domain(0)
	}
	return Domain(1)<<size - 1
}

// Has reports whether v is in the domain.
func (d Domain) Has(v int) bool { return d&(1<<uint(v)) != 0 }

// Size returns the number of values in the domain.
func (d Domain) Size() int { return bits.OnesCount64(uint64(d)) }

// Values returns the domain's values ascending.
func (d Domain) Values() []int {
	out := make([]int, 0, d.Size())
	for v := 0; v < MaxDomain; v++ {
		if d.Has(v) {
			out = append(out, v)
		}
	}
	return out
}

// Constraint is a binary constraint between variables X and Y: the pair
// (a, b) is allowed iff Allowed(a, b). Constraints are directional only in
// representation; the operator enforces both directions.
type Constraint struct {
	X, Y    int
	Allowed func(a, b int) bool
}

// Problem is a binary CSP: per-variable initial domains plus constraints.
type Problem struct {
	Domains     []Domain
	Constraints []Constraint
}

// Validate checks variable indices and domain bounds.
func (p *Problem) Validate() error {
	n := len(p.Domains)
	if n == 0 {
		return fmt.Errorf("csp: no variables")
	}
	for ci, c := range p.Constraints {
		if c.X < 0 || c.X >= n || c.Y < 0 || c.Y >= n {
			return fmt.Errorf("csp: constraint %d references variables (%d,%d) outside [0,%d)",
				ci, c.X, c.Y, n)
		}
		if c.X == c.Y {
			return fmt.Errorf("csp: constraint %d is unary (variable %d)", ci, c.X)
		}
		if c.Allowed == nil {
			return fmt.Errorf("csp: constraint %d has no relation", ci)
		}
	}
	return nil
}

// arc is one direction of a constraint, with a precomputed support table:
// support[a] is the set of b-values that allow a.
type arc struct {
	from, to int // revises the domain of from against the domain of to
	support  []Domain
}

// Operator is the arc-consistency ACO for a problem.
type Operator struct {
	doms []Domain
	// arcsFor[i] lists the arcs that revise variable i.
	arcsFor [][]arc
}

var _ aco.Operator = (*Operator)(nil)

// NewOperator compiles the problem into the iteration operator,
// precomputing support tables so that Apply is bit-parallel.
func NewOperator(p *Problem) (*Operator, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	o := &Operator{
		doms:    append([]Domain(nil), p.Domains...),
		arcsFor: make([][]arc, len(p.Domains)),
	}
	addArc := func(from, to int, allowed func(a, b int) bool) {
		sup := make([]Domain, MaxDomain)
		for a := 0; a < MaxDomain; a++ {
			if !p.Domains[from].Has(a) {
				continue
			}
			var s Domain
			for b := 0; b < MaxDomain; b++ {
				if p.Domains[to].Has(b) && allowed(a, b) {
					s |= 1 << uint(b)
				}
			}
			sup[a] = s
		}
		o.arcsFor[from] = append(o.arcsFor[from], arc{from: from, to: to, support: sup})
	}
	for _, c := range p.Constraints {
		c := c
		addArc(c.X, c.Y, c.Allowed)
		addArc(c.Y, c.X, func(a, b int) bool { return c.Allowed(b, a) })
	}
	return o, nil
}

// M implements aco.Operator.
func (o *Operator) M() int { return len(o.doms) }

// Name implements aco.Operator.
func (o *Operator) Name() string { return fmt.Sprintf("csp(n=%d)", len(o.doms)) }

// Initial implements aco.Operator.
func (o *Operator) Initial() []msg.Value {
	out := make([]msg.Value, len(o.doms))
	for i, d := range o.doms {
		out[i] = uint64(d)
	}
	return out
}

// Apply implements aco.Operator: keep the values of variable i's current
// domain that have support in every neighboring domain.
func (o *Operator) Apply(i int, view []msg.Value) msg.Value {
	out := Domain(view[i].(uint64))
	for _, a := range o.arcsFor[i] {
		dj := Domain(view[a.to].(uint64))
		var kept Domain
		for v := 0; v < MaxDomain; v++ {
			if out.Has(v) && a.support[v]&dj != 0 {
				kept |= 1 << uint(v)
			}
		}
		out = kept
	}
	return uint64(out)
}

// Equal implements aco.Operator.
func (o *Operator) Equal(_ int, a, b msg.Value) bool { return a.(uint64) == b.(uint64) }

// Target returns the arc-consistent fixed point by synchronous iteration.
func (o *Operator) Target() ([]msg.Value, error) {
	fp, _, err := aco.FixedPoint(o, 0)
	return fp, err
}

// InequalityChain returns the CSP x_0 < x_1 < ... < x_{n-1} over domains
// {0, ..., domainSize-1}. Arc consistency prunes variable i's domain to
// [i, domainSize-n+i], a crisp analytically checkable fixed point.
func InequalityChain(n, domainSize int) *Problem {
	p := &Problem{Domains: make([]Domain, n)}
	for i := range p.Domains {
		p.Domains[i] = FullDomain(domainSize)
	}
	for i := 0; i+1 < n; i++ {
		p.Constraints = append(p.Constraints, Constraint{
			X: i, Y: i + 1,
			Allowed: func(a, b int) bool { return a < b },
		})
	}
	return p
}

// AllDifferentRing returns n variables on a ring where neighbors must
// differ, over domains of the given size — a graph-coloring-flavored
// instance (arc consistency prunes nothing unless a domain is a singleton,
// which tests use as a no-op fixed-point case).
func AllDifferentRing(n, domainSize int) *Problem {
	p := &Problem{Domains: make([]Domain, n)}
	for i := range p.Domains {
		p.Domains[i] = FullDomain(domainSize)
	}
	for i := 0; i < n; i++ {
		p.Constraints = append(p.Constraints, Constraint{
			X: i, Y: (i + 1) % n,
			Allowed: func(a, b int) bool { return a != b },
		})
	}
	return p
}

// RandomProblem returns a random binary CSP: nvars variables over domains
// of the given size, with each ordered variable pair independently
// constrained with probability density, and each constrained pair allowing
// each value pair with probability looseness. Deterministic in the seed.
// Dense, tight instances tend to wipe out under arc consistency; loose ones
// prune little — both ends are useful test fodder.
func RandomProblem(nvars, domainSize int, density, looseness float64, seed uint64) *Problem {
	r := rand.New(rand.NewPCG(seed, seed^0xc59))
	p := &Problem{Domains: make([]Domain, nvars)}
	for i := range p.Domains {
		p.Domains[i] = FullDomain(domainSize)
	}
	for x := 0; x < nvars; x++ {
		for y := x + 1; y < nvars; y++ {
			if r.Float64() >= density {
				continue
			}
			// Materialize the random relation as a table so the Allowed
			// closure is deterministic and reusable.
			allowed := make([][]bool, domainSize)
			for a := range allowed {
				allowed[a] = make([]bool, domainSize)
				for b := range allowed[a] {
					allowed[a][b] = r.Float64() < looseness
				}
			}
			p.Constraints = append(p.Constraints, Constraint{
				X: x, Y: y,
				Allowed: func(a, b int) bool {
					if a < 0 || a >= len(allowed) || b < 0 || b >= len(allowed) {
						return false
					}
					return allowed[a][b]
				},
			})
		}
	}
	return p
}

// DistanceChain returns the CSP |x_i − x_{i+1}| <= maxStep with the two end
// variables pinned to singleton domains {lo} and {hi}. Arc consistency
// tightens every interior domain to the values reachable from both ends —
// a scheduling-style propagation instance.
func DistanceChain(n, domainSize, maxStep, lo, hi int) *Problem {
	p := &Problem{Domains: make([]Domain, n)}
	for i := range p.Domains {
		p.Domains[i] = FullDomain(domainSize)
	}
	p.Domains[0] = 1 << uint(lo)
	p.Domains[n-1] = 1 << uint(hi)
	abs := func(x int) int {
		if x < 0 {
			return -x
		}
		return x
	}
	for i := 0; i+1 < n; i++ {
		p.Constraints = append(p.Constraints, Constraint{
			X: i, Y: i + 1,
			Allowed: func(a, b int) bool { return abs(a-b) <= maxStep },
		})
	}
	return p
}
