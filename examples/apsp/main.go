// APSP: the paper's Section 7 experiment as a program. Thirty-four
// processes cooperatively compute all-pairs shortest paths on a chain, each
// owning one row of the distance matrix, sharing rows through monotone
// random registers replicated over 34 servers — first on the deterministic
// simulator (reporting rounds, like Figure 2), then for real over loopback
// TCP sockets.
//
// Run with:
//
//	go run ./examples/apsp [-n 12] [-k 4]
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"probquorum/internal/aco"
	"probquorum/internal/analysis"
	"probquorum/internal/apps/semiring"
	"probquorum/internal/graph"
	"probquorum/internal/quorum"
	"probquorum/internal/rng"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	var (
		n = flag.Int("n", 12, "chain length (processes = registers = servers)")
		k = flag.Int("k", 4, "probabilistic quorum size")
	)
	flag.Parse()

	g := graph.Chain(*n)
	op := semiring.NewAPSP(g)
	target := semiring.APSPTarget(g)
	pseudo := analysis.APSPPseudocycles(g.HopDiameter())
	fmt.Printf("APSP on a %d-vertex chain: diameter %d, so at most %d pseudocycles\n",
		*n, g.HopDiameter(), pseudo)
	fmt.Printf("quorums: random %d-subsets of %d servers (q = %.3f, Corollary 7 bound %.1f rounds)\n\n",
		*k, *n, analysis.OverlapProb(*n, *k),
		float64(pseudo)*analysis.Corollary7Rounds(*n, *k))

	// Simulated execution: deterministic, reports rounds.
	simRes, err := aco.RunSim(aco.SimConfig{
		Op:       op,
		Target:   target,
		Servers:  *n,
		System:   quorum.NewProbabilistic(*n, *k),
		Monotone: true,
		Delay:    rng.Exponential{MeanD: time.Millisecond},
		Seed:     1,
	})
	if err != nil {
		return err
	}
	fmt.Printf("simulator: converged=%v in %d rounds, %d iterations, %d messages, %d cache hits\n",
		simRes.Converged, simRes.Rounds, simRes.Iterations, simRes.Messages, simRes.CacheHits)
	if !simRes.Converged {
		return fmt.Errorf("simulated run did not converge in %d rounds", simRes.Rounds)
	}

	// Real execution over loopback sockets, one worker goroutine per process.
	tcpRes, err := aco.RunTCP(aco.TCPConfig{
		Op:       op,
		Target:   target,
		Servers:  *n,
		System:   quorum.NewProbabilistic(*n, *k),
		Monotone: true,
		Seed:     2,
	})
	if err != nil {
		return err
	}
	fmt.Printf("tcp: converged=%v in %d iterations, %d messages, %v wall time\n\n",
		tcpRes.Converged, tcpRes.Iterations, tcpRes.Messages, tcpRes.Elapsed.Round(time.Millisecond))
	if !tcpRes.Converged || !aco.VectorsEqual(op, tcpRes.Final, target) {
		return fmt.Errorf("TCP run did not reach the fixed point in %d iterations", tcpRes.Iterations)
	}

	// Show a slice of the final distance matrix read back from the
	// replicas.
	fmt.Printf("distances from vertex %d (register contents after the run):\n  ", *n-1)
	row := tcpRes.Final[*n-1].([]float64)
	for j, d := range row {
		fmt.Printf("d(%d)=%.0f ", j, d)
		if (j+1)%8 == 0 {
			fmt.Print("\n  ")
		}
	}
	fmt.Println()
	return nil
}
