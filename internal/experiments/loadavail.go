package experiments

import (
	"fmt"
	"math"

	"probquorum/internal/analysis"
	"probquorum/internal/faults"
	"probquorum/internal/metrics"
	"probquorum/internal/quorum"
	"probquorum/internal/rng"
)

// LoadConfig parameterizes the Section 4 load experiment: the empirical
// access frequency of the busiest server under each system's strategy,
// next to the analytic load and the Naor–Wool lower bound.
type LoadConfig struct {
	// Ns lists system sizes; perfect squares so grids are square
	// (default {16, 36, 64, 100}).
	Ns []int
	// FPPOrders lists projective-plane orders reported separately, since
	// their n must be q²+q+1 (default {3, 5, 7}).
	FPPOrders []int
	// Ops is the number of operations sampled per system (default 50000).
	Ops int
	// Seed seeds the sampling.
	Seed uint64
}

func (c *LoadConfig) applyDefaults() {
	if len(c.Ns) == 0 {
		c.Ns = []int{16, 36, 64, 100}
	}
	if len(c.FPPOrders) == 0 {
		c.FPPOrders = []int{3, 5, 7}
	}
	if c.Ops == 0 {
		c.Ops = 50000
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// LoadRow is one system's load measurement.
type LoadRow struct {
	System    string
	N         int
	K         int
	Empirical float64
	Analytic  float64
	// NaorWool is the lower bound max(1/k, k/n) no system of this quorum
	// size can beat.
	NaorWool  float64
	Imbalance float64
}

// LoadResult is the full load experiment.
type LoadResult struct {
	Config LoadConfig
	Rows   []LoadRow
}

// RunLoad measures busiest-server access frequencies.
func RunLoad(cfg LoadConfig) (LoadResult, error) {
	cfg.applyDefaults()
	res := LoadResult{Config: cfg}
	measure := func(sys quorum.System) {
		r := rng.Derive(cfg.Seed, "load."+sys.Name())
		tally := metrics.NewAccessTally(sys.N())
		for i := 0; i < cfg.Ops; i++ {
			tally.Touch(sys.Pick(r))
		}
		res.Rows = append(res.Rows, LoadRow{
			System:    sys.Name(),
			N:         sys.N(),
			K:         sys.Size(),
			Empirical: tally.MaxLoad(),
			Analytic:  quorum.TheoreticalLoad(sys),
			NaorWool:  analysis.NaorWoolLoadLowerBound(sys.N(), sys.Size()),
			Imbalance: tally.Imbalance(),
		})
	}
	for _, n := range cfg.Ns {
		root := int(math.Round(math.Sqrt(float64(n))))
		if root*root != n {
			return LoadResult{}, fmt.Errorf("load: n=%d is not a perfect square", n)
		}
		measure(quorum.NewProbabilistic(n, root))
		measure(quorum.NewMajority(n))
		measure(quorum.NewSquareGrid(n))
		measure(quorum.NewSingleton(n, 0))
	}
	for _, q := range cfg.FPPOrders {
		f, err := quorum.NewFPP(q)
		if err != nil {
			return LoadResult{}, err
		}
		measure(f)
	}
	return res, nil
}

// report prints the load rows.
func (r LoadResult) report() Report {
	t := Table{Cols: append(same("system", "n", "k"), Col{"load(meas)", "empirical", 4, 6},
		Col{"load(analytic)", "analytic", 4, 6}, Col{"Naor-Wool bound", "naor_wool", 4, 6}, Col{"imbalance", "imbalance", 3, 4})}
	for _, row := range r.Rows {
		t.Add(row.System, row.N, row.K, row.Empirical, row.Analytic, row.NaorWool, row.Imbalance)
	}
	return titled(fmt.Sprintf("Section 4: load of the busiest server (%d sampled ops per system)", r.Config.Ops), t)
}

// AvailConfig parameterizes the Section 4 availability experiment: the
// probability that a system retains a live quorum as crash failures mount,
// plus the analytic availability threshold.
type AvailConfig struct {
	// N is the system size; a perfect square (default 36).
	N int
	// FPPOrder adds a projective plane of this order, with its own n
	// (default 5, n = 31; 0 disables).
	FPPOrder int
	// Trials is the Monte-Carlo sample count per failure count (default
	// 2000).
	Trials int
	// Seed seeds the sampling.
	Seed uint64
}

func (c *AvailConfig) applyDefaults() {
	if c.N == 0 {
		c.N = 36
	}
	if c.FPPOrder == 0 {
		c.FPPOrder = 5
	}
	if c.Trials == 0 {
		c.Trials = 2000
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// AvailSeries is one system's survival curve.
type AvailSeries struct {
	System string
	N      int
	K      int
	// Threshold is the analytic availability: the minimum number of
	// failures that can disable the system.
	Threshold int
	// Survival[f] is the empirical probability of a live quorum with f
	// random crashes.
	Survival []float64
	// OpSuccess[f] is the empirical probability a single random quorum
	// pick is fully alive with f random crashes (no retries).
	OpSuccess []float64
}

// AvailResult is the full availability experiment.
type AvailResult struct {
	Config AvailConfig
	Series []AvailSeries
}

// RunAvailability measures survival curves under random crash sets.
func RunAvailability(cfg AvailConfig) (AvailResult, error) {
	cfg.applyDefaults()
	root := int(math.Round(math.Sqrt(float64(cfg.N))))
	if root*root != cfg.N {
		return AvailResult{}, fmt.Errorf("availability: n=%d is not a perfect square", cfg.N)
	}
	systems := []quorum.System{
		quorum.NewProbabilistic(cfg.N, root),
		quorum.NewMajority(cfg.N),
		quorum.NewSquareGrid(cfg.N),
	}
	if cfg.FPPOrder > 0 {
		f, err := quorum.NewFPP(cfg.FPPOrder)
		if err != nil {
			return AvailResult{}, err
		}
		systems = append(systems, f)
	}
	res := AvailResult{Config: cfg}
	for _, sys := range systems {
		r := rng.Derive(cfg.Seed, "avail."+sys.Name())
		series := AvailSeries{
			System:    sys.Name(),
			N:         sys.N(),
			K:         sys.Size(),
			Threshold: quorum.AvailabilityThreshold(sys),
		}
		for f := 0; f <= sys.N(); f++ {
			series.Survival = append(series.Survival, faults.SurvivalProb(sys, f, r, cfg.Trials))
			// Per-op success under one representative crash set per trial.
			var ok float64
			trials := cfg.Trials / 10
			if trials < 100 {
				trials = 100
			}
			for t := 0; t < trials; t++ {
				dead := faults.RandomCrashSet(r, sys.N(), f)
				if faults.QuorumAlive(sys.Pick(r), dead) {
					ok++
				}
			}
			series.OpSuccess = append(series.OpSuccess, ok/float64(trials))
		}
		res.Series = append(res.Series, series)
	}
	return res, nil
}

// report prints every survival point; the text view keeps f ≤ 12, every
// fourth f beyond, and the two values around each threshold.
func (r AvailResult) report() Report {
	t := Table{Cols: append(same("system", "n", "k", "threshold", "f"),
		Col{"P(live quorum)", "survival", 3, 6}, Col{"P(op succeeds)", "op_success", 3, 6})}
	for _, s := range r.Series {
		for f := range s.Survival {
			if f > 12 && f%4 != 0 && f != s.Threshold && f != s.Threshold-1 {
				t.AddCSVOnly(s.System, s.N, s.K, s.Threshold, f, s.Survival[f], s.OpSuccess[f])
			} else {
				t.Add(s.System, s.N, s.K, s.Threshold, f, s.Survival[f], s.OpSuccess[f])
			}
		}
	}
	return titled(fmt.Sprintf("Section 4: availability under crash failures (%d trials per point)", r.Config.Trials), t)
}
