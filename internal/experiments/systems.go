package experiments

import (
	"fmt"
	"math"
	"time"

	"probquorum/internal/aco"
	"probquorum/internal/apps/semiring"
	"probquorum/internal/graph"
	"probquorum/internal/quorum"
	"probquorum/internal/rng"
)

// SystemsConfig parameterizes the cross-system comparison: the same
// iterative workload run over register implementations backed by every
// quorum system in the library, reporting rounds, messages, analytic load,
// and availability side by side — the whole design space of Section 4 in
// one table, measured through the actual protocol rather than in isolation.
type SystemsConfig struct {
	// N is the system size; a perfect square ≥ 9 so the grid exists and a
	// projective plane of comparable size can be chosen (default 25).
	N int
	// Runs per system (default 3).
	Runs int
	// Seed is the base seed.
	Seed uint64
	// MaxRounds caps each run (default 2000).
	MaxRounds int
}

func (c *SystemsConfig) applyDefaults() {
	if c.N == 0 {
		c.N = 25
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

// SystemsRow is one quorum system's end-to-end measurements.
type SystemsRow struct {
	System       string
	N            int
	QuorumSize   int
	Strict       bool
	Load         float64
	Availability int
	Rounds       float64
	Messages     float64
	Converged    bool
}

// SystemsResult is the full comparison.
type SystemsResult struct {
	Config SystemsConfig
	Rows   []SystemsRow
}

// RunSystems runs the APSP workload over every quorum system. Systems whose
// n differs from the workload's (the projective plane) get their own chain
// of matching size, so rounds remain comparable per-system.
func RunSystems(cfg SystemsConfig) (SystemsResult, error) {
	cfg.applyDefaults()
	root := int(math.Round(math.Sqrt(float64(cfg.N))))
	if root*root != cfg.N {
		return SystemsResult{}, fmt.Errorf("systems: n=%d is not a perfect square", cfg.N)
	}
	// A projective plane of order closest to root, for a comparable size.
	fppOrder := 0
	for _, q := range []int{2, 3, 5, 7, 11, 13} {
		if q*q+q+1 <= 2*cfg.N {
			fppOrder = q
		}
	}
	systems := []quorum.System{
		quorum.NewProbabilistic(cfg.N, root),
		quorum.NewMajority(cfg.N),
		quorum.NewSquareGrid(cfg.N),
		quorum.NewTree(cfg.N, 0.3),
	}
	if fppOrder > 0 {
		systems = append(systems, quorum.MustFPP(fppOrder))
	}
	res := SystemsResult{Config: cfg}
	for _, sys := range systems {
		n := sys.N() // the plane sizes itself
		g := graph.Chain(n)
		op := semiring.NewAPSP(g)
		target := semiring.APSPTarget(g)
		var roundsSum, msgSum float64
		all := true
		for run := 0; run < cfg.Runs; run++ {
			r, err := aco.RunSim(aco.SimConfig{
				Op:        op,
				Target:    target,
				Servers:   n,
				System:    sys,
				Monotone:  true,
				Delay:     rng.Constant{D: time.Millisecond},
				Seed:      cfg.Seed + uint64(run)*31 + uint64(n),
				MaxRounds: cfg.MaxRounds,
			})
			if err != nil {
				return SystemsResult{}, fmt.Errorf("systems %s: %w", sys.Name(), err)
			}
			if !r.Converged {
				all = false
			}
			roundsSum += float64(r.Rounds)
			msgSum += float64(r.Messages)
		}
		res.Rows = append(res.Rows, SystemsRow{
			System:       sys.Name(),
			N:            n,
			QuorumSize:   sys.Size(),
			Strict:       sys.Strict(),
			Load:         quorum.TheoreticalLoad(sys),
			Availability: quorum.AvailabilityThreshold(sys),
			Rounds:       roundsSum / float64(cfg.Runs),
			Messages:     msgSum / float64(cfg.Runs),
			Converged:    all,
		})
	}
	return res, nil
}

// report prints the comparison.
func (r SystemsResult) report() Report {
	t := Table{Cols: append(same("system", "n", "k", "strict"), Col{"load", "load", 3, 6}, Col{"avail", "availability", 0, 0},
		Col{"rounds", "rounds", 1, 3}, Col{"messages", "messages", 0, 0}, Col{"conv", "converged", 0, 0})}
	for _, row := range r.Rows {
		t.Add(row.System, row.N, row.QuorumSize, row.Strict, row.Load, row.Availability, row.Rounds, row.Messages, row.Converged)
	}
	return titled(fmt.Sprintf("Quorum systems end-to-end: monotone registers, APSP chain per system size (mean of %d runs)",
		r.Config.Runs), t)
}
