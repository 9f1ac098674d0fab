package aco_test

import (
	"errors"
	"math"
	"testing"
	"time"

	"probquorum/internal/aco"
	"probquorum/internal/apps/semiring"
	"probquorum/internal/graph"
	"probquorum/internal/msg"
	"probquorum/internal/quorum"
	"probquorum/internal/rng"
)

// maxPrefix is a tiny ACO used by the framework tests: component i converges
// to the maximum of the initial values of components 0..i. F_i = max(x_i,
// x_{i-1}) is monotone and contracting on finite integer vectors.
type maxPrefix struct {
	init []int
}

func (o *maxPrefix) M() int { return len(o.init) }
func (o *maxPrefix) Initial() []msg.Value {
	out := make([]msg.Value, len(o.init))
	for i, v := range o.init {
		out[i] = v
	}
	return out
}
func (o *maxPrefix) Apply(i int, view []msg.Value) msg.Value {
	v := view[i].(int)
	if i > 0 {
		if p := view[i-1].(int); p > v {
			v = p
		}
	}
	return v
}
func (o *maxPrefix) Equal(_ int, a, b msg.Value) bool { return a.(int) == b.(int) }
func (o *maxPrefix) Name() string                     { return "max-prefix" }

// diverging never reaches a fixed point.
type diverging struct{}

func (diverging) M() int                               { return 1 }
func (diverging) Initial() []msg.Value                 { return []msg.Value{0} }
func (diverging) Apply(_ int, v []msg.Value) msg.Value { return v[0].(int) + 1 }
func (diverging) Equal(_ int, a, b msg.Value) bool     { return a.(int) == b.(int) }
func (diverging) Name() string                         { return "diverging" }

func TestFixedPointMaxPrefix(t *testing.T) {
	op := &maxPrefix{init: []int{3, 1, 4, 1, 5, 9, 2, 6}}
	fp, sweeps, err := aco.FixedPoint(op, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{3, 3, 4, 4, 5, 9, 9, 9}
	for i, w := range want {
		if fp[i].(int) != w {
			t.Fatalf("fp[%d] = %v, want %d", i, fp[i], w)
		}
	}
	if sweeps > len(want) {
		t.Fatalf("took %d sweeps for an %d-component chain", sweeps, len(want))
	}
}

func TestFixedPointDiverging(t *testing.T) {
	_, _, err := aco.FixedPoint(diverging{}, 50)
	if !errors.Is(err, aco.ErrNoFixedPoint) {
		t.Fatalf("err = %v, want ErrNoFixedPoint", err)
	}
}

func TestBlockPartition(t *testing.T) {
	pt := aco.BlockPartition(10, 3)
	if err := pt.Validate(); err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]bool)
	for proc := 0; proc < 3; proc++ {
		owned := pt.Owned(proc)
		if len(owned) == 0 {
			t.Fatalf("process %d owns nothing", proc)
		}
		for _, c := range owned {
			if seen[c] {
				t.Fatalf("component %d owned twice", c)
			}
			seen[c] = true
			if pt.Owner(c) != proc {
				t.Fatalf("Owner(%d) = %d, want %d", c, pt.Owner(c), proc)
			}
		}
	}
	if len(seen) != 10 {
		t.Fatalf("only %d of 10 components owned", len(seen))
	}
}

func TestBlockPartitionOneToOne(t *testing.T) {
	// The paper's Section 7 setup: m = p, one row per process.
	pt := aco.BlockPartition(34, 34)
	for i := 0; i < 34; i++ {
		if pt.Owner(i) != i {
			t.Fatalf("Owner(%d) = %d", i, pt.Owner(i))
		}
	}
}

func TestRoundRobinPartition(t *testing.T) {
	pt := aco.RoundRobinPartition(7, 3)
	if err := pt.Validate(); err != nil {
		t.Fatal(err)
	}
	if pt.Owner(5) != 2 || pt.Owner(6) != 0 {
		t.Fatal("round-robin ownership wrong")
	}
}

func TestPartitionValidateFailsWithIdleProcess(t *testing.T) {
	pt := aco.BlockPartition(2, 2)
	if err := pt.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := aco.RoundRobinPartition(2, 5) // processes 2..4 own nothing
	if err := bad.Validate(); err == nil {
		t.Fatal("idle processes not detected")
	}
}

func TestSynchronousScheduleAdmissible(t *testing.T) {
	s := aco.SynchronousSchedule(4)
	if err := aco.CheckAdmissible(s, 4, 200, 1); err != nil {
		t.Fatal(err)
	}
}

func TestRoundRobinScheduleAdmissible(t *testing.T) {
	s := aco.RoundRobinSchedule(5)
	if err := aco.CheckAdmissible(s, 5, 200, 5); err != nil {
		t.Fatal(err)
	}
}

func TestBoundedDelayScheduleAdmissible(t *testing.T) {
	s := aco.BoundedDelaySchedule(4, 3)
	if err := aco.CheckAdmissible(s, 4, 300, 4); err != nil {
		t.Fatal(err)
	}
}

func TestCheckAdmissibleRejectsFutureViews(t *testing.T) {
	s := aco.Schedule{
		Change: func(int) []int { return []int{0} },
		View:   func(_, k int) int { return k }, // reads the future
	}
	if err := aco.CheckAdmissible(s, 1, 10, 1); err == nil {
		t.Fatal("future view not rejected")
	}
}

func TestCheckAdmissibleRejectsStarvation(t *testing.T) {
	s := aco.Schedule{
		Change: func(int) []int { return []int{0} }, // component 1 never updates
		View:   func(_, k int) int { return k - 1 },
	}
	if err := aco.CheckAdmissible(s, 2, 50, 10); err == nil {
		t.Fatal("starved component not rejected")
	}
}

func TestIterateConvergesUnderAllSchedules(t *testing.T) {
	op := &maxPrefix{init: []int{9, 0, 0, 0, 0, 0}}
	fp, _, err := aco.FixedPoint(op, 0)
	if err != nil {
		t.Fatal(err)
	}
	schedules := map[string]aco.Schedule{
		"synchronous":   aco.SynchronousSchedule(op.M()),
		"round-robin":   aco.RoundRobinSchedule(op.M()),
		"bounded-delay": aco.BoundedDelaySchedule(op.M(), 3),
	}
	for name, s := range schedules {
		hist := aco.Iterate(op, s, 200)
		last := hist[len(hist)-1]
		if !aco.VectorsEqual(op, last, fp) {
			t.Fatalf("%s schedule did not converge: %v", name, last)
		}
	}
}

func TestIterateSynchronousMatchesFixedPointTrajectory(t *testing.T) {
	// Under the synchronous schedule, x(k) is exactly the k-th Jacobi sweep.
	g := graph.Chain(6)
	op := semiring.NewAPSP(g)
	hist := aco.Iterate(op, aco.SynchronousSchedule(op.M()), 4)
	// After k sweeps, entries with hop distance <= 2^k are exact.
	row5 := op.Row(hist[2][5])
	if row5[1] != 4 {
		t.Fatalf("after 2 sweeps, d(5,1) = %v, want 4 (within 2^2 hops)", row5[1])
	}
	if !math.IsInf(op.Row(hist[0][5])[0], 1) {
		t.Fatal("initial matrix lost")
	}
}

func TestPseudocyclesSynchronous(t *testing.T) {
	s := aco.SynchronousSchedule(3)
	starts, complete := aco.Pseudocycles(s, 3, 10)
	if complete != 10 {
		t.Fatalf("complete = %d, want 10 (every synchronous step is a pseudocycle)", complete)
	}
	for i := 1; i < len(starts); i++ {
		if starts[i] != starts[i-1]+1 {
			t.Fatalf("starts = %v", starts)
		}
	}
}

func TestPseudocyclesRoundRobin(t *testing.T) {
	s := aco.RoundRobinSchedule(4)
	_, complete := aco.Pseudocycles(s, 4, 40)
	if complete != 10 {
		t.Fatalf("complete = %d, want 10 (m steps per pseudocycle)", complete)
	}
}

// --- Alg. 1 over simulated random registers ---

func chainConfig(n int, k int, monotone bool, sync bool, seed uint64) aco.SimConfig {
	g := graph.Chain(n)
	op := semiring.NewAPSP(g)
	var delay rng.Dist = rng.Exponential{MeanD: time.Millisecond}
	if sync {
		delay = rng.Constant{D: time.Millisecond}
	}
	return aco.SimConfig{
		Op:        op,
		Target:    semiring.APSPTarget(g),
		Servers:   n,
		System:    quorum.NewProbabilistic(n, k),
		Monotone:  monotone,
		Delay:     delay,
		Seed:      seed,
		MaxRounds: 3000,
	}
}

func TestRunSimStrictSynchronousConvergesInPseudocycles(t *testing.T) {
	// With strict quorums (k=n) every read is fresh: the synchronous
	// execution must converge in exactly ceil(log2 d) + 1 rounds — the
	// pseudocycle bound plus the round in which processes observe
	// convergence of their final values (their last write lands mid-round).
	cfg := chainConfig(9, 9, false, true, 1)
	res, err := aco.RunSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("strict synchronous run did not converge")
	}
	// ceil(log2 8) = 3 pseudocycles.
	if res.Rounds != 3 {
		t.Fatalf("rounds = %d, want 3", res.Rounds)
	}
}

func TestRunSimMonotoneConvergesAllQuorumSizes(t *testing.T) {
	for _, k := range []int{1, 2, 4, 8} {
		cfg := chainConfig(8, k, true, true, uint64(100+k))
		res, err := aco.RunSim(cfg)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if !res.Converged {
			t.Fatalf("k=%d: monotone run did not converge in %d rounds", k, res.Rounds)
		}
		if res.Messages == 0 || res.Iterations == 0 {
			t.Fatalf("k=%d: counters empty", k)
		}
	}
}

func TestRunSimAsynchronousConverges(t *testing.T) {
	for _, monotone := range []bool{true, false} {
		cfg := chainConfig(8, 4, monotone, false, 42)
		res, err := aco.RunSim(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("monotone=%v: async run did not converge", monotone)
		}
	}
}

func TestRunSimDeterministicReplay(t *testing.T) {
	a, err := aco.RunSim(chainConfig(8, 3, true, false, 7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := aco.RunSim(chainConfig(8, 3, true, false, 7))
	if err != nil {
		t.Fatal(err)
	}
	if a.Rounds != b.Rounds || a.Messages != b.Messages || a.Iterations != b.Iterations {
		t.Fatalf("replay diverged: %+v vs %+v", a, b)
	}
}

func TestRunSimMonotoneBeatsNonMonotoneSmallQuorum(t *testing.T) {
	// The headline qualitative claim of Figure 2: with small quorums the
	// monotone algorithm converges in far fewer rounds. Average a few seeds.
	var monoSum, plainSum int
	const seeds = 3
	for s := uint64(1); s <= seeds; s++ {
		cfgM := chainConfig(10, 2, true, true, s)
		cfgP := chainConfig(10, 2, false, true, s)
		cfgP.MaxRounds = 2000
		rm, err := aco.RunSim(cfgM)
		if err != nil {
			t.Fatal(err)
		}
		rp, err := aco.RunSim(cfgP)
		if err != nil {
			t.Fatal(err)
		}
		if !rm.Converged {
			t.Fatal("monotone did not converge")
		}
		monoSum += rm.Rounds
		plainSum += rp.Rounds // cap counts if unconverged: a lower bound
	}
	if monoSum >= plainSum {
		t.Fatalf("monotone (%d total rounds) not faster than non-monotone (%d)", monoSum, plainSum)
	}
}

func TestRunSimMonotoneCacheUsed(t *testing.T) {
	cfg := chainConfig(8, 1, true, false, 5)
	res, err := aco.RunSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHits == 0 {
		t.Fatal("k=1 monotone run never used the cache")
	}
}

func TestRunSimMaxRoundsCap(t *testing.T) {
	cfg := chainConfig(10, 1, false, true, 3)
	cfg.MaxRounds = 5
	res, err := aco.RunSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Skip("k=1 non-monotone converged within 5 rounds; extremely unlikely")
	}
	if res.Rounds != 5 {
		t.Fatalf("capped run reports %d rounds, want the 5-round cap", res.Rounds)
	}
}

// TestRunSimConfigValidation runs every malformed configuration against both
// runners, which share one check: each must return an error, not panic.
func TestRunSimConfigValidation(t *testing.T) {
	good := chainConfig(6, 2, true, true, 1)
	cases := []struct {
		name string
		edit func(*aco.SimConfig)
	}{
		{"zero servers", func(c *aco.SimConfig) { c.Servers = 0 }},
		{"missing quorum system", func(c *aco.SimConfig) { c.System = nil }},
		{"mismatched system size", func(c *aco.SimConfig) { c.System = quorum.NewProbabilistic(99, 2) }},
		{"short target", func(c *aco.SimConfig) { c.Target = []msg.Value{1} }},
		{"diverging operator without target", func(c *aco.SimConfig) { c.Op, c.Target = diverging{}, nil }},
	}
	for _, tc := range cases {
		bad := good
		tc.edit(&bad)
		t.Run(tc.name+"/sim", func(t *testing.T) {
			if _, err := aco.RunSim(bad); err == nil {
				t.Fatal("accepted")
			}
		})
		t.Run(tc.name+"/tcp", func(t *testing.T) {
			_, err := aco.RunTCP(aco.TCPConfig{
				Op: bad.Op, Target: bad.Target, Servers: bad.Servers, System: bad.System,
				Monotone: bad.Monotone, Seed: bad.Seed,
			})
			if err == nil {
				t.Fatal("accepted")
			}
		})
	}
	t.Run("missing delay/sim", func(t *testing.T) {
		bad := good
		bad.Delay = nil
		if _, err := aco.RunSim(bad); err == nil {
			t.Fatal("accepted")
		}
	})
}

func TestRunSimFewerProcsThanComponents(t *testing.T) {
	// 3 processes sharing 9 rows still converges.
	cfg := chainConfig(9, 9, false, true, 2)
	cfg.Procs = 3
	res, err := aco.RunSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("partitioned run did not converge")
	}
}
