package experiments

import (
	"fmt"
	"math"
	"time"

	"probquorum/internal/aco"
	"probquorum/internal/analysis"
	"probquorum/internal/apps/semiring"
	"probquorum/internal/graph"
	"probquorum/internal/quorum"
	"probquorum/internal/rng"
)

// MsgConfig parameterizes the Section 6.4 message-complexity comparison:
// APSP on a chain with m = p = n, comparing the monotone probabilistic
// quorum implementation at k = ⌈√n⌉ against the two strict regimes the
// paper analyzes — majority (high availability, Eqn 2 with k = ⌊n/2⌋+1)
// and grid (optimal load, k ≈ 2√n − 1).
type MsgConfig struct {
	// Ns lists the system sizes; perfect squares so the grid is square.
	// Defaults to {16, 25, 36, 49}.
	Ns []int
	// Runs is the number of seeded runs averaged per cell (default 3).
	Runs int
	// Seed is the base seed.
	Seed uint64
	// MaxRounds caps each run (default 2000).
	MaxRounds int
}

func (c *MsgConfig) applyDefaults() {
	if len(c.Ns) == 0 {
		c.Ns = []int{16, 25, 36, 49}
	}
	if c.Runs == 0 {
		c.Runs = 3
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.MaxRounds == 0 {
		c.MaxRounds = 2000
	}
}

// MsgRow is one implementation strategy at one system size.
type MsgRow struct {
	N        int
	System   string
	K        int
	Strict   bool
	Rounds   float64 // measured rounds to convergence (mean)
	Pseudo   int     // pseudocycles the ACO needs
	CNRatio  float64 // measured rounds per pseudocycle
	Measured float64 // measured messages per pseudocycle (mean)
	// Predicted is Eqn 1 (probabilistic, using Corollary 7's c_n) or
	// Eqn 2 (strict).
	Predicted float64
	Converged bool
}

// MsgResult is the full message-complexity comparison.
type MsgResult struct {
	Config MsgConfig
	Rows   []MsgRow
}

// RunMessageComplexity regenerates the Section 6.4 comparison by running
// the APSP application to convergence under each implementation strategy
// and counting actual messages.
func RunMessageComplexity(cfg MsgConfig) (MsgResult, error) {
	cfg.applyDefaults()
	res := MsgResult{Config: cfg}
	for _, n := range cfg.Ns {
		root := int(math.Round(math.Sqrt(float64(n))))
		if root*root != n {
			return MsgResult{}, fmt.Errorf("msgtable: n=%d is not a perfect square", n)
		}
		g := graph.Chain(n)
		op := semiring.NewAPSP(g)
		target := semiring.APSPTarget(g)
		pseudo := analysis.APSPPseudocycles(g.HopDiameter())

		type strategy struct {
			name     string
			sys      quorum.System
			monotone bool
		}
		kProb := root
		strategies := []strategy{
			{name: "probabilistic k=sqrt(n)", sys: quorum.NewProbabilistic(n, kProb), monotone: true},
			{name: "strict majority", sys: quorum.NewMajority(n)},
			{name: "strict grid", sys: quorum.NewSquareGrid(n)},
		}
		for _, st := range strategies {
			var roundsSum, msgsSum float64
			allConverged := true
			for run := 0; run < cfg.Runs; run++ {
				r, err := aco.RunSim(aco.SimConfig{
					Op:        op,
					Target:    target,
					Servers:   n,
					System:    st.sys,
					Monotone:  st.monotone,
					Delay:     rng.Constant{D: time.Millisecond},
					Seed:      cfg.Seed + uint64(run)*7001 + uint64(n)*13,
					MaxRounds: cfg.MaxRounds,
				})
				if err != nil {
					return MsgResult{}, fmt.Errorf("msgtable n=%d %s: %w", n, st.name, err)
				}
				if !r.Converged {
					allConverged = false
				}
				roundsSum += float64(r.Rounds)
				msgsSum += float64(r.Messages)
			}
			rounds := roundsSum / float64(cfg.Runs)
			msgs := msgsSum / float64(cfg.Runs)
			k := st.sys.Size()
			var predicted float64
			if st.sys.Strict() {
				predicted = analysis.MStrict(n, n, k)
			} else {
				predicted = analysis.MProb(n, n, k, analysis.Corollary7Rounds(n, k))
			}
			res.Rows = append(res.Rows, MsgRow{
				N:         n,
				System:    st.name,
				K:         k,
				Strict:    st.sys.Strict(),
				Rounds:    rounds,
				Pseudo:    pseudo,
				CNRatio:   rounds / float64(pseudo),
				Measured:  msgs / float64(pseudo),
				Predicted: predicted,
				Converged: allConverged,
			})
		}
	}
	return res, nil
}

// report prints the comparison.
func (r MsgResult) report() Report {
	t := Table{Cols: append(same("n", "system", "k"), Col{"", "strict", 0, 0}, Col{"rounds", "rounds", 1, 2},
		Col{"pseudo", "pseudocycles", 0, 0}, Col{"c_n", "cn", 2, 4},
		Col{"msgs/pseudo (meas)", "measured_msgs_per_pseudocycle", 0, 1},
		Col{"msgs/pseudo (pred)", "predicted_msgs_per_pseudocycle", 0, 1}, Col{"conv", "converged", 0, 0})}
	for _, row := range r.Rows {
		t.Add(row.N, row.System, row.K, row.Strict, row.Rounds, row.Pseudo, row.CNRatio, row.Measured, row.Predicted, row.Converged)
	}
	return titled("Section 6.4: messages per pseudocycle, APSP chain with m = p = n (measured vs Eqn 1/2)", t)
}
