package experiments

import (
	"fmt"
	"math"

	"probquorum/internal/analysis"
)

// BoundsConfig parameterizes the Corollary 7 bound table: the expected
// rounds per pseudocycle as a function of quorum size, with both the loose
// ((n−k)/n)^k form the paper plots and the exact 1/q(n, k) of Theorem 5.
type BoundsConfig struct {
	// N is the number of replicas (default 34).
	N int
	// Pseudocycles scales the per-pseudocycle bound to a total-rounds
	// bound (default 6, the paper's chain workload).
	Pseudocycles int
}

func (c *BoundsConfig) applyDefaults() {
	if c.N == 0 {
		c.N = 34
	}
	if c.Pseudocycles == 0 {
		c.Pseudocycles = 6
	}
}

// BoundsRow is one quorum size's analytic values.
type BoundsRow struct {
	K int
	// Q is the exact overlap probability 1 − C(n−k,k)/C(n,k).
	Q float64
	// ExactRounds is 1/Q (Theorem 5 with exact q).
	ExactRounds float64
	// LooseRounds is Corollary 7's 1/(1−((n−k)/n)^k).
	LooseRounds float64
	// TotalBound is Pseudocycles × LooseRounds — the curve of Figure 2.
	TotalBound float64
}

// BoundsResult is the bound table plus the Section 6.4 claim check.
type BoundsResult struct {
	Config BoundsConfig
	Rows   []BoundsRow
	// SqrtNK is ⌈√n⌉ and CNAtSqrtN the bound there; Section 6.4 relies on
	// 1 < c_n < 2 in that regime.
	SqrtNK    int
	CNAtSqrtN float64
}

// RunBounds evaluates the closed forms across the full quorum range.
func RunBounds(cfg BoundsConfig) BoundsResult {
	cfg.applyDefaults()
	res := BoundsResult{Config: cfg}
	for k := 1; k <= cfg.N; k++ {
		loose := analysis.Corollary7Rounds(cfg.N, k)
		res.Rows = append(res.Rows, BoundsRow{
			K:           k,
			Q:           analysis.OverlapProb(cfg.N, k),
			ExactRounds: analysis.ExpectedRoundsExact(cfg.N, k),
			LooseRounds: loose,
			TotalBound:  float64(cfg.Pseudocycles) * loose,
		})
	}
	res.SqrtNK = int(math.Ceil(math.Sqrt(float64(cfg.N))))
	res.CNAtSqrtN = analysis.Corollary7Rounds(cfg.N, res.SqrtNK)
	return res
}

// report prints the bound table and the c_n check.
func (r BoundsResult) report() Report {
	t := Table{Cols: []Col{{"k", "k", 0, 0}, {"q(n,k)", "q", 5, 8}, {"1/q (exact)", "exact_rounds", 3, 6},
		{"Cor.7 bound", "cor7_rounds", 3, 6}, {"total rounds bound", "total_bound", 2, 4}}}
	for _, row := range r.Rows {
		t.Add(row.K, row.Q, row.ExactRounds, row.LooseRounds, row.TotalBound)
	}
	rep := titled(fmt.Sprintf("Corollary 7: expected rounds per pseudocycle, n=%d (total bound uses M=%d pseudocycles)",
		r.Config.N, r.Config.Pseudocycles), t)
	rep.Text = append(rep.Text, Note(fmt.Sprintf("\nAt k = ceil(sqrt(n)) = %d: c_n = %.4f (Section 6.4 needs 1 < c_n < 2)\n",
		r.SqrtNK, r.CNAtSqrtN)))
	return rep
}
