// Package aco implements the Üresin–Dubois framework for asynchronous
// iterative algorithms (J. ACM 1990) used by the paper's Section 5: an
// operator F over an m-component vector is iterated by p processes, each
// responsible for some components, reading possibly out-of-date views of the
// others. If F is an asynchronously contracting operator (ACO), every
// admissible update sequence converges to F's fixed point; over random
// registers convergence holds with probability 1 (paper, Theorem 3).
//
// The package provides
//
//   - the Operator interface every application (APSP, transitive closure,
//     Jacobi, constraint satisfaction, ...) implements,
//   - a synchronous fixed-point solver producing reference answers,
//   - the update-sequence machinery (change/view schedules, conditions
//     [A1]–[A3], pseudocycle detection) from the original framework,
//   - Alg. 1 over shared random registers: one process, which never blocks,
//     and one convergence and round monitor, run by RunSim on the
//     discrete-event simulator and by RunTCP over loopback sockets.
package aco

import (
	"errors"
	"fmt"

	"probquorum/internal/msg"
)

// Operator is one iterative algorithm instance: the function F of the
// Üresin–Dubois framework together with its initial vector (which must lie
// in D(0) of the contracting-sequence definition for convergence to hold).
//
// Components are register values (msg.Value); implementations must treat
// views as immutable and return freshly allocated values from Apply.
type Operator interface {
	// M returns the number of vector components.
	M() int
	// Initial returns the initial vector i, one value per component.
	Initial() []msg.Value
	// Apply computes F_i(view), the new value of component i given a full
	// (possibly stale) view of the vector.
	Apply(i int, view []msg.Value) msg.Value
	// Equal reports whether two values of component i are equal. Numeric
	// operators may use a tolerance.
	Equal(i int, a, b msg.Value) bool
	// Name identifies the operator in experiment output.
	Name() string
}

// ErrNoFixedPoint is returned when the synchronous iteration fails to reach
// a fixed point within the iteration budget — typically meaning the
// operator is not contracting on its initial vector.
var ErrNoFixedPoint = errors.New("aco: no fixed point within iteration budget")

// FixedPoint iterates F synchronously (a Jacobi sweep: every component
// recomputed from the previous full vector) until the vector stops changing,
// returning the fixed point and the number of sweeps taken. Synchronous
// iteration of an ACO converges in at most M pseudocycles, each of which is
// one sweep here.
func FixedPoint(op Operator, maxSweeps int) ([]msg.Value, int, error) {
	if maxSweeps <= 0 {
		maxSweeps = 10000
	}
	cur := op.Initial()
	for sweep := 1; sweep <= maxSweeps; sweep++ {
		next := make([]msg.Value, op.M())
		changed := false
		for i := 0; i < op.M(); i++ {
			next[i] = op.Apply(i, cur)
			if !op.Equal(i, next[i], cur[i]) {
				changed = true
			}
		}
		if !changed {
			return next, sweep - 1, nil
		}
		cur = next
	}
	return nil, maxSweeps, ErrNoFixedPoint
}

// VectorsEqual reports componentwise equality of two full vectors under the
// operator's Equal.
func VectorsEqual(op Operator, a, b []msg.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !op.Equal(i, a[i], b[i]) {
			return false
		}
	}
	return true
}

// Partition assigns each of m components to one of p processes. The paper's
// Alg. 1 partitions responsibility for the vector components among the
// processes.
type Partition struct {
	m, p  int
	owner []int
}

// BlockPartition assigns contiguous blocks of components to processes, as
// the paper's APSP simulation does (process i owns row i, with m = p).
func BlockPartition(m, p int) Partition {
	if m <= 0 || p <= 0 {
		panic(fmt.Sprintf("aco: invalid partition m=%d p=%d", m, p))
	}
	owner := make([]int, m)
	for i := range owner {
		// Process j owns components [j*m/p, (j+1)*m/p).
		owner[i] = i * p / m
		if owner[i] >= p {
			owner[i] = p - 1
		}
	}
	return Partition{m: m, p: p, owner: owner}
}

// RoundRobinPartition assigns component i to process i mod p.
func RoundRobinPartition(m, p int) Partition {
	if m <= 0 || p <= 0 {
		panic(fmt.Sprintf("aco: invalid partition m=%d p=%d", m, p))
	}
	owner := make([]int, m)
	for i := range owner {
		owner[i] = i % p
	}
	return Partition{m: m, p: p, owner: owner}
}

// M returns the number of components.
func (pt Partition) M() int { return pt.m }

// P returns the number of processes.
func (pt Partition) P() int { return pt.p }

// Owner returns the process responsible for component i.
func (pt Partition) Owner(i int) int { return pt.owner[i] }

// Owned returns the components process proc is responsible for, ascending.
func (pt Partition) Owned(proc int) []int {
	var out []int
	for i, o := range pt.owner {
		if o == proc {
			out = append(out, i)
		}
	}
	return out
}

// Validate checks that every process owns at least one component, which
// Alg. 1 requires (an ownerless process would still iterate but write
// nothing, and an unowned component would never be updated, violating [A2]).
func (pt Partition) Validate() error {
	counts := make([]int, pt.p)
	for _, o := range pt.owner {
		counts[o]++
	}
	for proc, c := range counts {
		if c == 0 {
			return fmt.Errorf("aco: process %d owns no components", proc)
		}
	}
	return nil
}
