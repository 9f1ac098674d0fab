package experiments

import (
	"fmt"

	"probquorum/internal/analysis"
	"probquorum/internal/metrics"
	"probquorum/internal/quorum"
	"probquorum/internal/rng"
)

// DecayConfig parameterizes the Theorem 1 experiment: how quickly a write
// stops being visible as later writes land on random quorums. The Monte
// Carlo operates directly on the replicas' timestamp state — exactly the
// event analyzed in Theorem 1's proof — with no messaging in the way.
type DecayConfig struct {
	// N is the number of replicas (34 in the paper's setup).
	N int
	// Ks lists quorum sizes to sweep. Defaults to {3, 6, 9, 12}.
	Ks []int
	// MaxL is the largest number of subsequent writes examined (default 40).
	MaxL int
	// Trials is the Monte-Carlo sample count per (k, l) (default 20000).
	Trials int
	// Seed seeds the sampling.
	Seed uint64
}

func (c *DecayConfig) applyDefaults() {
	if c.N == 0 {
		c.N = 34
	}
	if len(c.Ks) == 0 {
		c.Ks = []int{3, 6, 9, 12}
	}
	if c.MaxL == 0 {
		c.MaxL = 40
	}
	if c.Trials == 0 {
		c.Trials = 20000
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// DecayPoint is one (k, l) cell.
type DecayPoint struct {
	K int
	L int
	// Survival is the empirical probability that at least one replica of
	// the write's quorum still holds the write after l subsequent writes.
	Survival float64
	// ReadReturns is the empirical probability that a random read quorum
	// returns the write (touches a surviving replica and nothing newer).
	ReadReturns float64
	// Bound is Theorem 1's bound k·((n−k)/n)^l on Survival.
	Bound float64
}

// DecayResult is the full Theorem 1 experiment.
type DecayResult struct {
	Config DecayConfig
	Points []DecayPoint
}

// RunDecay runs the Theorem 1 Monte Carlo.
func RunDecay(cfg DecayConfig) DecayResult {
	cfg.applyDefaults()
	res := DecayResult{Config: cfg}
	for _, k := range cfg.Ks {
		sys := quorum.NewProbabilistic(cfg.N, k)
		r := rng.Derive(cfg.Seed, fmt.Sprintf("decay.k=%d", k))
		surv := make([]int, cfg.MaxL+1)
		reads := make([]int, cfg.MaxL+1)
		for trial := 0; trial < cfg.Trials; trial++ {
			// ts[s] is replica s's current timestamp; the observed write is
			// timestamp 1, later writes count up from 2.
			ts := make([]uint64, cfg.N)
			for _, s := range sys.Pick(r) {
				ts[s] = 1
			}
			for l := 0; l <= cfg.MaxL; l++ {
				survives := false
				for s := 0; s < cfg.N; s++ {
					if ts[s] == 1 {
						survives = true
						break
					}
				}
				if survives {
					surv[l]++
				}
				// One read: does its quorum's max timestamp equal 1?
				var max uint64
				for _, s := range sys.Pick(r) {
					if ts[s] > max {
						max = ts[s]
					}
				}
				if max == 1 {
					reads[l]++
				}
				// Apply the next write.
				next := uint64(l + 2)
				for _, s := range sys.Pick(r) {
					ts[s] = next
				}
			}
		}
		for l := 0; l <= cfg.MaxL; l++ {
			res.Points = append(res.Points, DecayPoint{
				K:           k,
				L:           l,
				Survival:    float64(surv[l]) / float64(cfg.Trials),
				ReadReturns: float64(reads[l]) / float64(cfg.Trials),
				Bound:       analysis.Theorem1Bound(cfg.N, k, l),
			})
		}
	}
	return res
}

// report prints every point; the text view samples every fifth l past 10.
func (r DecayResult) report() Report {
	t := Table{Cols: []Col{{"k", "k", 0, 0}, {"l", "l", 0, 0}, {"P(survives)", "survival", 4, 6},
		{"P(read returns)", "read_returns", 4, 6}, {"bound k((n-k)/n)^l", "bound", 4, 6}}}
	for _, p := range r.Points {
		if p.L > 10 && p.L%5 != 0 {
			t.AddCSVOnly(p.K, p.L, p.Survival, p.ReadReturns, p.Bound)
		} else {
			t.Add(p.K, p.L, p.Survival, p.ReadReturns, p.Bound)
		}
	}
	return titled(fmt.Sprintf("Theorem 1: probability a write survives l subsequent writes (n=%d, %d trials)",
		r.Config.N, r.Config.Trials), t)
}

// FreshnessConfig parameterizes the [R5] experiment: the distribution of
// Y, the number of reads a process needs after a write W until it reads W
// or something newer, under the monotone probabilistic quorum algorithm.
type FreshnessConfig struct {
	// N is the number of replicas (default 34).
	N int
	// Ks lists quorum sizes (default {2, 4, 6}).
	Ks []int
	// Trials is the sample count per k (default 50000).
	Trials int
	// MaxReads caps one trial's read count (default 10000).
	MaxReads int
	// Seed seeds the sampling.
	Seed uint64
	// OngoingWrites interleaves an unrelated newer write before every
	// read, measuring how concurrent traffic accelerates freshness (the
	// effect Theorem 4's analysis deliberately ignores, making its bound
	// conservative).
	OngoingWrites bool
}

func (c *FreshnessConfig) applyDefaults() {
	if c.N == 0 {
		c.N = 34
	}
	if len(c.Ks) == 0 {
		c.Ks = []int{2, 4, 6}
	}
	if c.Trials == 0 {
		c.Trials = 50000
	}
	if c.MaxReads == 0 {
		c.MaxReads = 10000
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// FreshnessSeries is the measured distribution of Y for one quorum size.
type FreshnessSeries struct {
	K int
	// Q is the analytic per-read success probability of Theorem 4.
	Q float64
	// MeanY is the empirical mean of Y; Theorem 5 bounds it by 1/Q.
	MeanY float64
	// BoundMean is 1/Q.
	BoundMean float64
	// Hist is the empirical distribution of Y.
	Hist *metrics.IntHistogram
}

// FreshnessResult is the full [R5] experiment.
type FreshnessResult struct {
	Config FreshnessConfig
	Series []FreshnessSeries
}

// RunFreshness runs the [R5] Monte Carlo: after a write to a random
// quorum, count reads (each on a fresh random quorum) until the returned
// timestamp is at least the write's.
func RunFreshness(cfg FreshnessConfig) FreshnessResult {
	cfg.applyDefaults()
	res := FreshnessResult{Config: cfg}
	for _, k := range cfg.Ks {
		sys := quorum.NewProbabilistic(cfg.N, k)
		r := rng.Derive(cfg.Seed, fmt.Sprintf("freshness.k=%d", k))
		hist := metrics.NewIntHistogram()
		for trial := 0; trial < cfg.Trials; trial++ {
			ts := make([]uint64, cfg.N)
			const wTS = 1
			for _, s := range sys.Pick(r) {
				ts[s] = wTS
			}
			next := uint64(wTS + 1)
			y := cfg.MaxReads
			for read := 1; read <= cfg.MaxReads; read++ {
				if cfg.OngoingWrites {
					for _, s := range sys.Pick(r) {
						ts[s] = next
					}
					next++
				}
				var max uint64
				for _, s := range sys.Pick(r) {
					if ts[s] > max {
						max = ts[s]
					}
				}
				if max >= wTS {
					y = read
					break
				}
			}
			hist.Observe(y)
		}
		q := analysis.OverlapProb(cfg.N, k)
		res.Series = append(res.Series, FreshnessSeries{
			K:         k,
			Q:         q,
			MeanY:     hist.Mean(),
			BoundMean: 1 / q,
			Hist:      hist,
		})
	}
	return res
}

// report prints the freshness summary and the head of each distribution
// against the geometric bound; the CSV holds every observed outcome.
func (r FreshnessResult) report() Report {
	mode := "isolated write"
	if r.Config.OngoingWrites {
		mode = "with ongoing writes"
	}
	summary := Table{Cols: []Col{{"k", "", 0, 0}, {"q", "", 4, 0}, {"E[Y] measured", "", 3, 0},
		{"bound 1/q", "", 3, 0}, {"p50", "", 0, 0}, {"p99", "", 0, 0}, {"max", "", 0, 0}}}
	head := Table{Cols: []Col{{"k", "", 0, 0}, {"r", "", 0, 0},
		{"P(Y=r) measured", "", 4, 0}, {"(1-q)^(r-1)q bound", "", 4, 0}}}
	dist := Table{Cols: []Col{{"", "k", 0, 0}, {"", "y", 0, 0},
		{"", "p_measured", 0, 6}, {"", "p_geometric_bound", 0, 6}}}
	for _, s := range r.Series {
		summary.Add(s.K, s.Q, s.MeanY, s.BoundMean, s.Hist.Quantile(0.5), s.Hist.Quantile(0.99), s.Hist.Max())
		for y := 1; y <= 6; y++ {
			head.Add(s.K, y, s.Hist.P(y), rng.Geometric(s.Q, y))
		}
		for _, y := range s.Hist.Outcomes() {
			dist.Add(s.K, y, s.Hist.P(y), rng.Geometric(s.Q, y))
		}
	}
	return Report{CSV: dist, Text: []Part{
		Note(fmt.Sprintf("[R5] read-freshness variable Y (n=%d, %s, %d trials)\n\n", r.Config.N, mode, r.Config.Trials)),
		summary,
		Note("\nPer-read distribution vs geometric bound (first 6 outcomes):\n\n"),
		head,
	}}
}
