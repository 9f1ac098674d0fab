package experiments

import (
	"fmt"
	"time"

	"probquorum/internal/aco"
	"probquorum/internal/apps/semiring"
	"probquorum/internal/graph"
	"probquorum/internal/metrics"
	"probquorum/internal/quorum"
	"probquorum/internal/rng"
	"probquorum/internal/trace"
)

// StaleConfig parameterizes the staleness-distribution experiment: run the
// APSP workload over random registers, record every operation, and measure
// how many writes each read lags behind. This is the end-to-end view of
// what the decay bound (E3) predicts per write: staleness must concentrate
// near 0 and fall off geometrically in the quorum size.
type StaleConfig struct {
	// Vertices is the chain length (default 12).
	Vertices int
	// Ks lists quorum sizes to sweep (default {1, 2, 4, 8}).
	Ks []int
	// Monotone selects the register variant (default non-monotone shows
	// raw staleness; the monotone cache clips what the application sees).
	Monotone bool
	// ReadRepair enables the write-back extension, an ablation on how much
	// repair traffic improves freshness.
	ReadRepair bool
	// Seed is the base seed.
	Seed uint64
	// MaxRounds caps each run (default 2000).
	MaxRounds int
}

func (c *StaleConfig) applyDefaults() {
	if c.Vertices == 0 {
		c.Vertices = 12
	}
	if len(c.Ks) == 0 {
		c.Ks = []int{1, 2, 4, 8}
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.MaxRounds == 0 {
		c.MaxRounds = 2000
	}
}

// StaleSeries is the staleness distribution at one quorum size.
type StaleSeries struct {
	K int
	// Hist is the distribution of reads' staleness (writes lagged behind).
	Hist *metrics.IntHistogram
	// FreshFrac is the fraction of reads returning the latest write.
	FreshFrac float64
	// Reads is the number of reads measured.
	Reads     int64
	Converged bool
}

// StaleResult is the full staleness experiment.
type StaleResult struct {
	Config StaleConfig
	Series []StaleSeries
}

// RunStaleness measures read staleness distributions across quorum sizes.
func RunStaleness(cfg StaleConfig) (StaleResult, error) {
	cfg.applyDefaults()
	n := cfg.Vertices
	g := graph.Chain(n)
	op := semiring.NewAPSP(g)
	target := semiring.APSPTarget(g)
	res := StaleResult{Config: cfg}
	for _, k := range cfg.Ks {
		log := &trace.Log{}
		r, err := aco.RunSim(aco.SimConfig{
			Op:         op,
			Target:     target,
			Servers:    n,
			System:     quorum.NewProbabilistic(n, k),
			Monotone:   cfg.Monotone,
			ReadRepair: cfg.ReadRepair,
			Delay:      rng.Exponential{MeanD: time.Millisecond},
			Seed:       cfg.Seed + uint64(k)*97,
			MaxRounds:  cfg.MaxRounds,
			Trace:      log,
		})
		if err != nil {
			return StaleResult{}, fmt.Errorf("staleness k=%d: %w", k, err)
		}
		hist := metrics.NewIntHistogram()
		fresh := int64(0)
		samples := trace.Staleness(log.Ops())
		for _, s := range samples {
			hist.Observe(s)
			if s == 0 {
				fresh++
			}
		}
		total := int64(len(samples))
		var frac float64
		if total > 0 {
			frac = float64(fresh) / float64(total)
		}
		res.Series = append(res.Series, StaleSeries{
			K:         k,
			Hist:      hist,
			FreshFrac: frac,
			Reads:     total,
			Converged: r.Converged,
		})
	}
	return res, nil
}

// report prints the staleness summary; the CSV holds the full
// distributions.
func (r StaleResult) report() Report {
	variant := "non-monotone"
	if r.Config.Monotone {
		variant = "monotone"
	}
	if r.Config.ReadRepair {
		variant += "+repair"
	}
	summary := Table{Cols: []Col{{"k", "", 0, 0}, {"reads", "", 0, 0}, {"fresh", "", 0, 0}, {"mean staleness", "", 2, 0},
		{"p50", "", 0, 0}, {"p99", "", 0, 0}, {"max", "", 0, 0}, {"conv", "", 0, 0}}}
	dist := Table{Cols: []Col{{"", "k", 0, 0}, {"", "staleness", 0, 0}, {"", "p", 0, 6}}}
	for _, s := range r.Series {
		summary.Add(s.K, s.Reads, Pct(s.FreshFrac), s.Hist.Mean(),
			s.Hist.Quantile(0.5), s.Hist.Quantile(0.99), s.Hist.Max(), s.Converged)
		for _, v := range s.Hist.Outcomes() {
			dist.Add(s.K, v, s.Hist.P(v))
		}
	}
	return Report{CSV: dist, Text: []Part{
		Note(fmt.Sprintf("Read staleness in writes lagged (APSP chain n=%d, %s, async)\n\n", r.Config.Vertices, variant)),
		summary,
	}}
}
