// PageRank: damped link-iteration over random registers. Each worker owns
// one page's score and repeatedly recomputes it from possibly stale scores
// of the linking pages read through probabilistic quorums. Damping < 1
// makes the update a contraction, so the asynchronous iteration converges
// to the exact PageRank vector — checked here against an independent dense
// linear solve.
//
// Run with:
//
//	go run ./examples/pagerank
package main

import (
	"fmt"
	"log"
	"math"
	"sort"

	"probquorum/internal/aco"
	"probquorum/internal/apps/pagerank"
	"probquorum/internal/graph"
	"probquorum/internal/quorum"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// A small link graph: a hub (0), a clique feeding it, and a chain
	// hanging off page 5.
	g := graph.New(10)
	for i := 1; i <= 4; i++ {
		g.AddEdge(i, 0, 1)
		g.AddEdge(0, i, 1)
	}
	g.AddEdge(0, 5, 1)
	g.AddEdge(5, 6, 1)
	g.AddEdge(6, 7, 1)
	g.AddEdge(7, 8, 1)
	g.AddEdge(8, 9, 1)
	g.AddEdge(9, 0, 1)

	op, err := pagerank.New(g, 0.85, 1e-9)
	if err != nil {
		return err
	}
	exact, err := op.Target()
	if err != nil {
		return err
	}

	res, err := aco.RunTCP(aco.TCPConfig{
		Op:       op,
		Target:   exact,
		Servers:  10,
		System:   quorum.NewProbabilistic(10, 3),
		Monotone: true,
		Seed:     1,
	})
	if err != nil {
		return err
	}
	fmt.Printf("converged=%v in %d iterations, %d messages\n\n",
		res.Converged, res.Iterations, res.Messages)
	if !res.Converged {
		return fmt.Errorf("PageRank did not converge in %d iterations", res.Iterations)
	}

	type ranked struct {
		page  int
		score float64
	}
	var pages []ranked
	var worst float64
	for i, v := range res.Final {
		score := v.(float64)
		pages = append(pages, ranked{page: i, score: score})
		worst = math.Max(worst, math.Abs(score-exact[i].(float64)))
	}
	sort.Slice(pages, func(a, b int) bool { return pages[a].score > pages[b].score })
	fmt.Println("rank  page  score (distributed)  score (dense solve)")
	for r, p := range pages {
		fmt.Printf("  %-4d %-5d %-19.6f %.6f\n", r+1, p.page, p.score, exact[p.page].(float64))
	}
	fmt.Printf("\nworst componentwise error vs the dense solve: %.2e\n", worst)
	return nil
}
