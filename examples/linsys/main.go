// Linsys: asynchronous Jacobi iteration over random registers. Each of n
// worker processes owns one unknown of a strictly diagonally dominant
// system A·x = b and repeatedly re-solves its equation against possibly
// stale estimates of the other unknowns read through probabilistic quorums
// — chaotic relaxation in the sense of Chazan–Miranker, running as real
// goroutines against replicas behind loopback sockets.
//
// Run with:
//
//	go run ./examples/linsys [-n 10] [-k 3]
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"time"

	"probquorum/internal/aco"
	"probquorum/internal/apps/linsys"
	"probquorum/internal/quorum"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	var (
		n = flag.Int("n", 10, "unknowns (= processes = servers)")
		k = flag.Int("k", 3, "probabilistic quorum size")
	)
	flag.Parse()

	a, b := linsys.RandomDominant(*n, 1.0, 7)
	op, err := linsys.NewJacobi(a, b, 1e-8)
	if err != nil {
		return err
	}
	exact, err := op.Solve()
	if err != nil {
		return err
	}
	target, err := op.Target()
	if err != nil {
		return err
	}

	fmt.Printf("solving a random strictly diagonally dominant %dx%d system\n", *n, *n)
	res, err := aco.RunTCP(aco.TCPConfig{
		Op:       op,
		Target:   target,
		Servers:  *n,
		System:   quorum.NewProbabilistic(*n, *k),
		Monotone: true,
		Seed:     3,
	})
	if err != nil {
		return err
	}
	fmt.Printf("converged=%v in %d iterations, %d messages, %v\n\n",
		res.Converged, res.Iterations, res.Messages, res.Elapsed.Round(time.Millisecond))
	if !res.Converged {
		return fmt.Errorf("Jacobi iteration did not converge in %d iterations", res.Iterations)
	}

	fmt.Println("  i   iterative x_i     exact x_i        |error|")
	var worst float64
	for i := 0; i < *n; i++ {
		got := res.Final[i].(float64)
		err := math.Abs(got - exact[i])
		worst = math.Max(worst, err)
		fmt.Printf("  %-3d %-16.10f %-16.10f %.2e\n", i, got, exact[i], err)
	}
	fmt.Printf("\nworst componentwise error: %.2e\n", worst)
	return nil
}
