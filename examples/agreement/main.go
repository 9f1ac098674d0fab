// Agreement: approximate agreement over random registers — the application
// the paper's discussion section proposes for this model. Each of n
// processes starts with a private estimate and repeatedly moves to the
// midpoint of the extremes it observes through probabilistic quorum reads.
// The spread halves per pseudocycle, so the processes reach ε-agreement on
// a value inside the initial range even though every read may be stale.
//
// Run with:
//
//	go run ./examples/agreement
package main

import (
	"fmt"
	"log"

	"probquorum/internal/aco"
	"probquorum/internal/apps/agreement"
	"probquorum/internal/quorum"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	inputs := []float64{3.0, 100.0, -42.5, 7.25, 12.0, 0.0, 55.5, 9.0}
	const eps = 0.001
	op, err := agreement.New(inputs, eps)
	if err != nil {
		return err
	}
	lo, hi := op.InputRange()
	fmt.Printf("inputs: %v\n", inputs)
	fmt.Printf("target: all values within %v of each other, inside [%v, %v]\n\n", eps, lo, hi)

	res, err := aco.RunTCP(aco.TCPConfig{
		Op:       op,
		Servers:  len(inputs),
		System:   quorum.NewProbabilistic(len(inputs), 3),
		Monotone: true,
		Seed:     1,
		Correct:  op.Correct(),
	})
	if err != nil {
		return err
	}
	fmt.Printf("converged=%v in %d iterations, %d messages\n\n",
		res.Converged, res.Iterations, res.Messages)
	if !res.Converged {
		return fmt.Errorf("no ε-agreement after %d iterations", res.Iterations)
	}

	fmt.Println("decided values:")
	for i, v := range res.Final {
		fmt.Printf("  process %d: %.6f\n", i, v.(float64))
	}
	spread := agreement.Spread(res.Final)
	fmt.Printf("\nfinal spread: %.6f (validity: every value inside [%v, %v])\n", spread, lo, hi)
	for _, v := range res.Final {
		f := v.(float64)
		if f < lo || f > hi {
			return fmt.Errorf("validity violated: %v outside input range", f)
		}
	}
	return nil
}
