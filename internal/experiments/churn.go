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

// ChurnConfig parameterizes the availability-in-action experiment: run the
// APSP workload while a targeted set of servers crashes mid-execution, and
// compare the probabilistic system at k = √n (availability n−√n+1) against
// the strict grid (availability √n). The crash set is one full grid column
// — exactly √n servers — which disables every grid quorum but leaves the
// probabilistic system with abundant live quorums.
type ChurnConfig struct {
	// N is the system size; a perfect square (default 16).
	N int
	// CrashAt is the virtual time of the column crash (default 5ms: early
	// in the run).
	CrashAt time.Duration
	// Recover, if positive, brings the column back at this time, letting
	// the stalled system finish late instead of never.
	Recover time.Duration
	// Runs per cell (default 3).
	Runs int
	// Seed is the base seed.
	Seed uint64
	// MaxRounds caps each run (default 200).
	MaxRounds int
}

func (c *ChurnConfig) applyDefaults() {
	if c.N == 0 {
		c.N = 16
	}
	if c.CrashAt == 0 {
		c.CrashAt = 5 * time.Millisecond
	}
	if c.Runs == 0 {
		c.Runs = 3
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.MaxRounds == 0 {
		c.MaxRounds = 200
	}
}

// ChurnRow is one system's behaviour under the column crash.
type ChurnRow struct {
	System    string
	Converged int
	Runs      int
	// Rounds is the mean rounds (a lower bound for unconverged runs).
	Rounds float64
	// Retries is the mean number of timed-out, reissued operations.
	Retries float64
}

// ChurnResult is the full churn experiment.
type ChurnResult struct {
	Config ChurnConfig
	Rows   []ChurnRow
}

// RunChurn crashes one grid column mid-run under both systems.
func RunChurn(cfg ChurnConfig) (ChurnResult, error) {
	cfg.applyDefaults()
	root := int(math.Round(math.Sqrt(float64(cfg.N))))
	if root*root != cfg.N {
		return ChurnResult{}, fmt.Errorf("churn: n=%d is not a perfect square", cfg.N)
	}
	g := graph.Chain(cfg.N)
	op := semiring.NewAPSP(g)
	target := semiring.APSPTarget(g)

	// Column 0 of the grid: servers 0, cols, 2*cols, ... — exactly the
	// minimal crash set that kills every grid quorum.
	var crashes []aco.CrashEvent
	for i := 0; i < root; i++ {
		crashes = append(crashes, aco.CrashEvent{At: cfg.CrashAt, Server: i * root})
		if cfg.Recover > 0 {
			crashes = append(crashes, aco.CrashEvent{At: cfg.Recover, Server: i * root, Recover: true})
		}
	}

	systems := []quorum.System{
		quorum.NewProbabilistic(cfg.N, root),
		quorum.NewSquareGrid(cfg.N),
	}
	res := ChurnResult{Config: cfg}
	for _, sys := range systems {
		row := ChurnRow{System: sys.Name(), Runs: cfg.Runs}
		for run := 0; run < cfg.Runs; run++ {
			r, err := aco.RunSim(aco.SimConfig{
				Op:           op,
				Target:       target,
				Servers:      cfg.N,
				System:       sys,
				Monotone:     true,
				Delay:        rng.Constant{D: time.Millisecond},
				Seed:         cfg.Seed + uint64(run)*11,
				DriverConfig: aco.DriverConfig{OpTimeout: 10 * time.Millisecond},
				Crashes:      crashes,
				MaxRounds:    cfg.MaxRounds,
				MaxEvents:    5_000_000,
			})
			if err != nil {
				return ChurnResult{}, fmt.Errorf("churn %s: %w", sys.Name(), err)
			}
			if r.Converged {
				row.Converged++
			}
			row.Rounds += float64(r.Rounds)
			row.Retries += float64(r.Retries)
		}
		row.Rounds /= float64(cfg.Runs)
		row.Retries /= float64(cfg.Runs)
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// report prints the churn rows.
func (r ChurnResult) report() Report {
	recover := "never recovers"
	if r.Config.Recover > 0 {
		recover = fmt.Sprintf("recovers at %v", r.Config.Recover)
	}
	t := Table{Cols: []Col{{"system", "system", 0, 0}, {"converged", "", 0, 0}, {"", "converged", 0, 0},
		{"", "runs", 0, 0}, {"rounds", "rounds", 1, 2}, {"retries", "retries", 0, 1}}}
	for _, row := range r.Rows {
		t.Add(row.System, fmt.Sprintf("%d/%d", row.Converged, row.Runs), row.Converged, row.Runs,
			lowerBound(row.Rounds, row.Converged < row.Runs), row.Retries)
	}
	return titled(fmt.Sprintf("Availability in action: one full grid column crashes at %v (%s), APSP chain n=%d",
		r.Config.CrashAt, recover, r.Config.N), t)
}
