package experiments

import (
	"fmt"
	"time"

	"probquorum/internal/aco"
	"probquorum/internal/analysis"
	"probquorum/internal/apps/semiring"
	"probquorum/internal/graph"
	"probquorum/internal/quorum"
	"probquorum/internal/rng"
)

// AsymConfig parameterizes the asymmetric-quorum ablation: split a fixed
// total quorum budget kr + kw = Total between read and write quorums and
// measure convergence rounds and total messages of the APSP workload. In
// Alg. 1 each process performs m reads but only writes its owned
// registers, so messages scale with m·kr + owned·kw per iteration — but
// the freshness probability q = 1 − C(n−kw, kr)/C(n, kr) is symmetric in
// the split. The ablation shows where the message-optimal split lies.
type AsymConfig struct {
	// Vertices is the chain length (= servers = processes; default 16).
	Vertices int
	// Total is the fixed kr + kw budget (default 10).
	Total int
	// Runs per split (default 3).
	Runs int
	// Seed is the base seed.
	Seed uint64
	// MaxRounds caps each run (default 2000).
	MaxRounds int
}

func (c *AsymConfig) applyDefaults() {
	if c.Vertices == 0 {
		c.Vertices = 16
	}
	if c.Total == 0 {
		c.Total = 10
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

// AsymRow is one split of the quorum budget.
type AsymRow struct {
	KRead, KWrite int
	// Q is the asymmetric overlap probability.
	Q float64
	// Rounds is the measured mean rounds to convergence.
	Rounds float64
	// Messages is the measured mean total messages to convergence.
	Messages  float64
	Converged bool
}

// AsymResult is the full ablation.
type AsymResult struct {
	Config AsymConfig
	Rows   []AsymRow
}

// RunAsymmetry sweeps the read/write split of a fixed quorum budget.
func RunAsymmetry(cfg AsymConfig) (AsymResult, error) {
	cfg.applyDefaults()
	n := cfg.Vertices
	if cfg.Total >= n {
		return AsymResult{}, fmt.Errorf("asym: budget %d must be below n=%d", cfg.Total, n)
	}
	g := graph.Chain(n)
	op := semiring.NewAPSP(g)
	target := semiring.APSPTarget(g)
	res := AsymResult{Config: cfg}
	for kr := 1; kr < cfg.Total; kr++ {
		kw := cfg.Total - kr
		var roundSum, msgSum float64
		all := true
		for run := 0; run < cfg.Runs; run++ {
			r, err := aco.RunSim(aco.SimConfig{
				Op:          op,
				Target:      target,
				Servers:     n,
				System:      quorum.NewProbabilistic(n, kr),
				WriteSystem: quorum.NewProbabilistic(n, kw),
				Monotone:    true,
				Delay:       rng.Constant{D: time.Millisecond},
				Seed:        cfg.Seed + uint64(run)*101 + uint64(kr)*17,
				MaxRounds:   cfg.MaxRounds,
			})
			if err != nil {
				return AsymResult{}, fmt.Errorf("asym kr=%d kw=%d: %w", kr, kw, err)
			}
			if !r.Converged {
				all = false
			}
			roundSum += float64(r.Rounds)
			msgSum += float64(r.Messages)
		}
		res.Rows = append(res.Rows, AsymRow{
			KRead:     kr,
			KWrite:    kw,
			Q:         analysis.OverlapProbAsym(n, kw, kr),
			Rounds:    roundSum / float64(cfg.Runs),
			Messages:  msgSum / float64(cfg.Runs),
			Converged: all,
		})
	}
	return res, nil
}

// report prints the ablation.
func (r AsymResult) report() Report {
	t := Table{Cols: append(same("k_read", "k_write"), Col{"q(n,kw,kr)", "q", 4, 6}, Col{"rounds", "rounds", 2, 4},
		Col{"total msgs", "messages", 0, 0}, Col{"conv", "converged", 0, 0})}
	for _, row := range r.Rows {
		t.Add(row.KRead, row.KWrite, row.Q, row.Rounds, row.Messages, row.Converged)
	}
	return titled(fmt.Sprintf("Asymmetric quorums: APSP chain n=%d, fixed budget kr+kw=%d (monotone, synchronous)",
		r.Config.Vertices, r.Config.Total), t)
}
