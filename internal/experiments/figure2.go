package experiments

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"probquorum/internal/aco"
	"probquorum/internal/analysis"
	"probquorum/internal/apps/semiring"
	"probquorum/internal/graph"
	"probquorum/internal/metrics"
	"probquorum/internal/quorum"
	"probquorum/internal/rng"
)

// Variant is one of the four curves of Figure 2.
type Variant struct {
	Monotone bool
	Sync     bool
}

// Name renders the variant as the paper labels it.
func (v Variant) Name() string {
	m := "non-monotone"
	if v.Monotone {
		m = "monotone"
	}
	s := "async"
	if v.Sync {
		s = "sync"
	}
	return m + "/" + s
}

// AllVariants lists the paper's four combinations.
func AllVariants() []Variant {
	return []Variant{
		{Monotone: true, Sync: true},
		{Monotone: true, Sync: false},
		{Monotone: false, Sync: true},
		{Monotone: false, Sync: false},
	}
}

// Figure2Config parameterizes the Figure 2 reproduction. The zero-valueable
// fields default to the paper's setup: a 34-vertex unit-weight chain, 34
// replicas, quorum sizes 1..18, 7 runs per point.
type Figure2Config struct {
	// Vertices is the chain length (34 in the paper). The number of
	// processes, registers, and servers all equal Vertices, exactly as in
	// Section 7.
	Vertices int
	// QuorumSizes lists the k values to sweep (1..18 in the paper; above
	// 17 = ceil(n/2) all quorums of 34 servers overlap).
	QuorumSizes []int
	// Runs is the number of seeded executions averaged per point (7 in
	// the paper).
	Runs int
	// Seed is the base seed; run r of point (k, variant) derives its own.
	Seed uint64
	// MaxRounds caps each execution. Non-monotone runs with tiny quorums
	// do not converge in reasonable time (the paper plots them as lower
	// bounds); capped runs are flagged LowerBound.
	MaxRounds int
	// Variants lists the curves to produce; nil means all four.
	Variants []Variant
	// Workload selects the input graph: "chain" (the paper's, default),
	// "ring", "grid" (Vertices must be a perfect square), or "random"
	// (strongly connected sparse graph).
	Workload string
}

// buildWorkload constructs the configured graph.
func (c Figure2Config) buildWorkload() (*graph.Graph, error) {
	switch c.Workload {
	case "chain":
		return graph.Chain(c.Vertices), nil
	case "ring":
		return graph.Ring(c.Vertices), nil
	case "grid":
		root := int(math.Round(math.Sqrt(float64(c.Vertices))))
		if root*root != c.Vertices {
			return nil, fmt.Errorf("figure2: grid workload needs square vertex count, got %d", c.Vertices)
		}
		return graph.Grid2D(root, root), nil
	case "random":
		return graph.RandomSparse(c.Vertices, 2*c.Vertices, 9, c.Seed^0x5eed), nil
	default:
		return nil, fmt.Errorf("figure2: unknown workload %q", c.Workload)
	}
}

func (c *Figure2Config) applyDefaults() {
	if c.Vertices == 0 {
		c.Vertices = 34
	}
	if c.Workload == "" {
		c.Workload = "chain"
	}
	if len(c.QuorumSizes) == 0 {
		for k := 1; k <= c.Vertices/2+1; k++ {
			c.QuorumSizes = append(c.QuorumSizes, k)
		}
	}
	if c.Runs == 0 {
		c.Runs = 7
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.MaxRounds == 0 {
		c.MaxRounds = 300
	}
	if len(c.Variants) == 0 {
		c.Variants = AllVariants()
	}
}

// Figure2Point is one plotted point: one variant at one quorum size,
// averaged over the configured runs.
type Figure2Point struct {
	K          int
	Variant    Variant
	MeanRounds float64
	MinRounds  float64
	MaxRounds  float64
	Stddev     float64
	// CI95 is the half-width of the 95% confidence interval on MeanRounds.
	CI95      float64
	Converged int
	Runs      int
	// LowerBound is set when any run hit the round cap, making MeanRounds
	// a lower bound (the paper's open squares).
	LowerBound bool
	// MeanMessages is the average total message count until convergence.
	MeanMessages float64
	// MeanCacheHits is the average number of monotone cache hits.
	MeanCacheHits float64
}

// Figure2Result is the full reproduction of Figure 2.
type Figure2Result struct {
	Config       Figure2Config
	Pseudocycles int
	// Bounds[k] is the Corollary 7 upper bound on total rounds,
	// M · 1/(1−((n−k)/n)^k), the figure's analytic curve.
	Bounds map[int]float64
	Points []Figure2Point
}

// RunFigure2 regenerates Figure 2: for every variant and quorum size it
// runs the APSP application of Section 7 over (monotone) random registers
// and records rounds to convergence.
func RunFigure2(cfg Figure2Config) (Figure2Result, error) {
	cfg.applyDefaults()
	n := cfg.Vertices
	g, err := cfg.buildWorkload()
	if err != nil {
		return Figure2Result{}, err
	}
	op := semiring.NewAPSP(g)
	target := semiring.APSPTarget(g)
	pseudo := analysis.APSPPseudocycles(g.HopDiameter())

	res := Figure2Result{
		Config:       cfg,
		Pseudocycles: pseudo,
		Bounds:       make(map[int]float64, len(cfg.QuorumSizes)),
	}
	for _, k := range cfg.QuorumSizes {
		res.Bounds[k] = float64(pseudo) * analysis.Corollary7Rounds(n, k)
	}

	type job struct {
		variant Variant
		k       int
		run     int
	}
	type outcome struct {
		variant   Variant
		k         int
		rounds    float64
		converged bool
		messages  float64
		cacheHits float64
		err       error
	}
	var jobs []job
	for _, v := range cfg.Variants {
		for _, k := range cfg.QuorumSizes {
			for r := 0; r < cfg.Runs; r++ {
				jobs = append(jobs, job{variant: v, k: k, run: r})
			}
		}
	}
	outcomes := make([]outcome, len(jobs))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for ji, j := range jobs {
		wg.Add(1)
		go func(ji int, j job) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			var delay rng.Dist = rng.Exponential{MeanD: time.Millisecond}
			if j.variant.Sync {
				delay = rng.Constant{D: time.Millisecond}
			}
			seed := cfg.Seed + uint64(j.run)*1000003 +
				uint64(j.k)*7919 + variantSeed(j.variant)
			r, err := aco.RunSim(aco.SimConfig{
				Op:        op,
				Target:    target,
				Servers:   n,
				System:    quorum.NewProbabilistic(n, j.k),
				Monotone:  j.variant.Monotone,
				Delay:     delay,
				Seed:      seed,
				MaxRounds: cfg.MaxRounds,
			})
			outcomes[ji] = outcome{
				variant:   j.variant,
				k:         j.k,
				rounds:    float64(r.Rounds),
				converged: r.Converged,
				messages:  float64(r.Messages),
				cacheHits: float64(r.CacheHits),
				err:       err,
			}
		}(ji, j)
	}
	wg.Wait()

	type key struct {
		v Variant
		k int
	}
	agg := make(map[key]*Figure2Point)
	sums := make(map[key]*metrics.Summary)
	for _, o := range outcomes {
		if o.err != nil {
			return Figure2Result{}, fmt.Errorf("figure2 k=%d %s: %w", o.k, o.variant.Name(), o.err)
		}
		kk := key{o.variant, o.k}
		pt := agg[kk]
		if pt == nil {
			pt = &Figure2Point{K: o.k, Variant: o.variant}
			agg[kk] = pt
			sums[kk] = &metrics.Summary{}
		}
		sums[kk].Observe(o.rounds)
		pt.Runs++
		if o.converged {
			pt.Converged++
		} else {
			pt.LowerBound = true
		}
		pt.MeanMessages += o.messages
		pt.MeanCacheHits += o.cacheHits
	}
	// Emit points in a deterministic order: variant order, then k order.
	for _, v := range cfg.Variants {
		for _, k := range cfg.QuorumSizes {
			kk := key{v, k}
			pt, ok := agg[kk]
			if !ok {
				continue
			}
			s := sums[kk]
			pt.MeanRounds = s.Mean()
			pt.CI95 = s.CI95()
			pt.MinRounds = s.Min()
			pt.MaxRounds = s.Max()
			pt.Stddev = s.Stddev()
			pt.MeanMessages /= float64(pt.Runs)
			pt.MeanCacheHits /= float64(pt.Runs)
			res.Points = append(res.Points, *pt)
		}
	}
	return res, nil
}

func variantSeed(v Variant) uint64 {
	var s uint64
	if v.Monotone {
		s |= 1
	}
	if v.Sync {
		s |= 2
	}
	return s * 104729
}

// report prints the points as a table mirroring Figure 2's series, then
// the ASCII chart: one marker per variant plus the Corollary 7 bound.
func (r Figure2Result) report() Report {
	t := Table{Cols: []Col{
		{"k", "k", 0, 0}, {"variant", "variant", 0, 0}, {"rounds(mean)", "mean_rounds", 2, 4}, {"ci95", "", 2, 0},
		{"min", "min", 0, 0}, {"max", "max", 0, 0}, {"", "stddev", 0, 4},
		{"conv", "", 0, 0}, {"", "converged", 0, 0}, {"", "runs", 0, 0}, {"", "lower_bound", 0, 0},
		{"bound(Cor.7)", "bound_cor7", 2, 4}, {"msgs(mean)", "mean_messages", 0, 0}, {"cache-hits", "mean_cache_hits", 0, 0},
	}}
	rounds := map[Variant]map[int]float64{}
	for _, p := range r.Points {
		t.Add(p.K, p.Variant.Name(), lowerBound(p.MeanRounds, p.LowerBound), Prefixed{"±", p.CI95},
			p.MinRounds, p.MaxRounds, p.Stddev, fmt.Sprintf("%d/%d", p.Converged, p.Runs), p.Converged, p.Runs,
			p.LowerBound, r.Bounds[p.K], p.MeanMessages, p.MeanCacheHits)
		if rounds[p.Variant] == nil {
			rounds[p.Variant] = map[int]float64{}
		}
		rounds[p.Variant][p.K] = p.MeanRounds
	}
	markers := map[Variant]byte{{true, true}: 'M', {true, false}: 'm', {false, true}: 'N', {false, false}: 'n'}
	var series []PlotSeries
	for _, v := range r.Config.Variants {
		series = append(series, PlotSeries{Name: v.Name(), Marker: markers[v], Points: rounds[v]})
	}
	series = append(series, PlotSeries{Name: "Corollary 7 bound", Marker: '*', Points: r.Bounds})
	rep := titled(fmt.Sprintf("Figure 2: quorum size vs rounds to convergence (APSP on %d-vertex %s, %d pseudocycles)",
		r.Config.Vertices, r.Config.Workload, r.Pseudocycles), t)
	rep.Text = append(rep.Text, Plot{
		Title:  fmt.Sprintf("Figure 2: rounds to convergence vs quorum size (n=%d)", r.Config.Vertices),
		Series: series,
		Height: 22,
	})
	return rep
}

// Point returns the point for a variant and quorum size, if present.
func (r Figure2Result) Point(v Variant, k int) (Figure2Point, bool) {
	for _, p := range r.Points {
		if p.Variant == v && p.K == k {
			return p, true
		}
	}
	return Figure2Point{}, false
}
