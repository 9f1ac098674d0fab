// CSP: distributed arc consistency over random registers. Each worker owns
// one variable's domain; domains shrink monotonically as workers prune
// values that lost support in their neighbors' (possibly stale) domains.
// Because the domains form a finite descending lattice, the iteration is an
// ACO and converges to the unique largest arc-consistent assignment even
// with stale reads.
//
// The instance is a scheduling-style chain: tasks at integer time slots, a
// maximum gap between consecutive tasks, and pinned first/last slots.
//
// Run with:
//
//	go run ./examples/csp
package main

import (
	"fmt"
	"log"

	"probquorum/internal/aco"
	"probquorum/internal/apps/csp"
	"probquorum/internal/quorum"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// Eight tasks over 16 slots: consecutive tasks at most 2 slots apart,
	// task 0 pinned to slot 1, task 7 pinned to slot 13.
	const (
		vars    = 8
		slots   = 16
		maxStep = 2
		first   = 1
		last    = 13
	)
	problem := csp.DistanceChain(vars, slots, maxStep, first, last)
	op, err := csp.NewOperator(problem)
	if err != nil {
		return err
	}

	fmt.Printf("scheduling chain: %d tasks, slots 0..%d, gap <= %d, ends pinned to %d and %d\n\n",
		vars, slots-1, maxStep, first, last)
	fmt.Println("initial domains:")
	for i, d := range op.Initial() {
		fmt.Printf("  task %d: %v\n", i, csp.Domain(d.(uint64)).Values())
	}

	res, err := aco.RunTCP(aco.TCPConfig{
		Op:       op,
		Servers:  vars,
		System:   quorum.NewProbabilistic(vars, 3),
		Monotone: true,
		Seed:     4,
	})
	if err != nil {
		return err
	}
	fmt.Printf("\nconverged=%v in %d iterations, %d messages\n\n",
		res.Converged, res.Iterations, res.Messages)
	if !res.Converged {
		return fmt.Errorf("domains did not reach arc consistency in %d iterations", res.Iterations)
	}
	fmt.Println("arc-consistent domains:")
	for i, d := range res.Final {
		fmt.Printf("  task %d: %v\n", i, csp.Domain(d.(uint64)).Values())
	}
	return nil
}
