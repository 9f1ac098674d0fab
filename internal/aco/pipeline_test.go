package aco_test

import (
	"testing"
	"time"

	"probquorum/internal/aco"
	"probquorum/internal/apps/semiring"
	"probquorum/internal/cluster"
	"probquorum/internal/graph"
	"probquorum/internal/metrics"
	"probquorum/internal/quorum"
	"probquorum/internal/rng"
	"probquorum/internal/trace"
)

// checkPipelinedTrace runs the full pipelined battery over a recorded
// execution: structural well-formedness, [R2], [R4], and a genuine-overlap
// witness.
func checkPipelinedTrace(t *testing.T, log *trace.Log, wantOverlap bool) {
	t.Helper()
	ops := log.Ops()
	if len(ops) == 0 {
		t.Fatalf("trace is empty")
	}
	if err := trace.CheckPipelinedWellFormed(ops); err != nil {
		t.Fatalf("pipelined well-formedness: %v", err)
	}
	if err := trace.CheckReadsFrom(ops); err != nil {
		t.Fatalf("[R2]: %v", err)
	}
	if err := trace.CheckMonotone(ops); err != nil {
		t.Fatalf("[R4]: %v", err)
	}
	if wantOverlap {
		if got := trace.MaxInFlight(ops); got < 2 {
			t.Fatalf("MaxInFlight = %d, want >= 2 (pipelined run did not overlap)", got)
		}
	}
}

// TestRunSimPipelinedConverges: the simulator leg of the pipelined harness.
// The run must converge to the same fixed point as the serial mode, the
// trace must pass every pipelined check, and the per-iteration reads must
// genuinely overlap (that is the whole point of the pipeline).
func TestRunSimPipelinedConverges(t *testing.T) {
	g := graph.Chain(6)
	op := semiring.NewAPSP(g)
	target := semiring.APSPTarget(g)
	log := &trace.Log{}
	gauge := &metrics.Gauge{}
	res, err := aco.RunSim(aco.SimConfig{
		Op:        op,
		Target:    target,
		Servers:   6,
		Procs:     3,
		System:    quorum.NewProbabilistic(6, 3),
		Monotone:  true,
		Pipelined: true,
		Delay:     rng.Exponential{MeanD: time.Millisecond},
		Seed:      7,
		Trace:     log,
		Gauge:     gauge,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("pipelined sim run did not converge")
	}
	if !aco.VectorsEqual(op, res.Final, target) {
		t.Fatal("pipelined final vector differs from the fixed point")
	}
	checkPipelinedTrace(t, log, true)
	// The simulator halts the instant the monitor sees convergence, leaving
	// whatever was mid-flight un-completed — so only the high-watermark is
	// meaningful here, not a drained gauge.
	if gauge.Max() < 2 {
		t.Fatalf("in-flight gauge high-watermark = %d, want >= 2", gauge.Max())
	}
}

// TestRunSimPipelinedDeterministic: virtual time plus the pipeline's
// synchronous callback chaining must preserve the simulator's determinism
// guarantee — same seed, same everything.
func TestRunSimPipelinedDeterministic(t *testing.T) {
	run := func() aco.SimResult {
		g := graph.Chain(5)
		res, err := aco.RunSim(aco.SimConfig{
			Op:        semiring.NewAPSP(g),
			Target:    semiring.APSPTarget(g),
			Servers:   5,
			Procs:     5,
			System:    quorum.NewProbabilistic(5, 3),
			Monotone:  true,
			Pipelined: true,
			Delay:     rng.Exponential{MeanD: time.Millisecond},
			Seed:      11,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Rounds != b.Rounds || a.Iterations != b.Iterations ||
		a.Messages != b.Messages || a.VirtualTime != b.VirtualTime {
		t.Fatalf("pipelined sim is nondeterministic:\n a=%+v\n b=%+v", a, b)
	}
}

// TestRunSimPipelinedFewerRoundsOfLatency: with an m-component operator and
// a constant delay, a serial iteration pays m+owned sequential round-trips
// while the pipelined one pays ~2; virtual time to convergence must drop.
func TestRunSimPipelinedCutsVirtualTime(t *testing.T) {
	g := graph.Chain(6)
	base := aco.SimConfig{
		Op:       semiring.NewAPSP(g),
		Target:   semiring.APSPTarget(g),
		Servers:  6,
		Procs:    3,
		System:   quorum.NewProbabilistic(6, 3),
		Monotone: true,
		Delay:    rng.Constant{D: time.Millisecond},
		Seed:     5,
	}
	serialCfg := base
	serial, err := aco.RunSim(serialCfg)
	if err != nil {
		t.Fatal(err)
	}
	pipedCfg := base
	pipedCfg.Pipelined = true
	piped, err := aco.RunSim(pipedCfg)
	if err != nil {
		t.Fatal(err)
	}
	if !serial.Converged || !piped.Converged {
		t.Fatalf("convergence: serial=%v piped=%v", serial.Converged, piped.Converged)
	}
	if piped.VirtualTime >= serial.VirtualTime {
		t.Fatalf("pipelined virtual time %v not below serial %v", piped.VirtualTime, serial.VirtualTime)
	}
}

func TestRunSimPipelinedValidation(t *testing.T) {
	g := graph.Chain(3)
	base := aco.SimConfig{
		Op:        semiring.NewAPSP(g),
		Servers:   3,
		System:    quorum.NewMajority(3),
		Pipelined: true,
		Delay:     rng.Constant{D: time.Millisecond},
	}
	withTimeout := base
	withTimeout.OpTimeout = time.Second
	withTimeout.Crashes = []aco.CrashEvent{{At: time.Millisecond, Server: 0}}
	if _, err := aco.RunSim(withTimeout); err == nil {
		t.Fatal("pipelined sim accepted a crash schedule")
	}
	// Read repair rides the one engine: a pipelined run with it converges.
	withRepair := base
	withRepair.ReadRepair = true
	if res, err := aco.RunSim(withRepair); err != nil || !res.Converged {
		t.Fatalf("pipelined sim with read repair: converged=%v, err=%v", res.Converged, err)
	}
}

// TestRunConcurrentPipelined: the goroutine runtime with pipelined workers
// still converges, and its trace passes the pipelined battery.
func TestRunConcurrentPipelined(t *testing.T) {
	g := graph.Chain(6)
	op := semiring.NewAPSP(g)
	target := semiring.APSPTarget(g)
	log := &trace.Log{}
	gauge := &metrics.Gauge{}
	res, err := aco.RunConcurrent(aco.ConcurrentConfig{
		Op:        op,
		Target:    target,
		Servers:   6,
		Procs:     3,
		System:    quorum.NewProbabilistic(6, 2),
		Monotone:  true,
		Pipelined: true,
		Delay:     rng.Exponential{MeanD: 50 * time.Microsecond},
		Seed:      2,
		Trace:     log,
		Gauge:     gauge,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("pipelined concurrent run did not converge")
	}
	checkPipelinedTrace(t, log, true)
	if gauge.Max() < 2 {
		t.Fatalf("in-flight gauge high-watermark = %d, want >= 2", gauge.Max())
	}
}

// TestRunConcurrentPipelinedMasking: pipelined workers mask reads like
// blocking ones — the same Operation drives both — and converge to the exact
// fixed point past a Byzantine server.
func TestRunConcurrentPipelinedMasking(t *testing.T) {
	g := graph.Chain(5)
	op := semiring.NewAPSP(g)
	target := semiring.APSPTarget(g)
	res, err := aco.RunConcurrent(aco.ConcurrentConfig{
		Op:        op,
		Target:    target,
		Servers:   5,
		System:    quorum.NewProbabilistic(5, 3),
		Monotone:  true,
		Pipelined: true,
		Seed:      12,
		Masking:   1,
		Faults: func(c *cluster.Cluster) {
			c.SetByzantine(4, "POISON")
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("masked pipelined workers did not converge past the Byzantine server")
	}
	if !aco.VectorsEqual(op, res.Final, target) {
		t.Fatal("final vector corrupted despite masking")
	}
}

// TestRunTCPPipelined: real sockets, batch framing, trace-checked.
func TestRunTCPPipelined(t *testing.T) {
	g := graph.Chain(6)
	op := semiring.NewAPSP(g)
	target := semiring.APSPTarget(g)
	log := &trace.Log{}
	gauge := &metrics.Gauge{}
	hist := metrics.NewIntHistogram()
	res, err := aco.RunTCP(aco.TCPConfig{
		Op:        op,
		Target:    target,
		Servers:   6,
		Procs:     3,
		System:    quorum.NewProbabilistic(6, 3),
		Monotone:  true,
		Seed:      1,
		Pipelined: true,
		Trace:     log,
		Gauge:     gauge,
		BatchHist: hist,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("pipelined TCP run did not converge")
	}
	if !aco.VectorsEqual(op, res.Final, target) {
		t.Fatal("pipelined TCP final vector differs from the fixed point")
	}
	checkPipelinedTrace(t, log, true)
	if gauge.Max() < 2 {
		t.Fatalf("in-flight gauge high-watermark = %d, want >= 2", gauge.Max())
	}
	if hist.Total() == 0 {
		t.Fatal("batch histogram recorded nothing")
	}
}

// TestRunTCPPipelinedThroughCrashAndRecovery: the availability story with
// the pipelined client — a replica crashes at start and recovers mid-run;
// per-operation deadlines re-issue stalled operations on fresh quorums and
// the iteration still converges, with a trace that stays valid throughout.
func TestRunTCPPipelinedThroughCrashAndRecovery(t *testing.T) {
	g := graph.Chain(6)
	op := semiring.NewAPSP(g)
	target := semiring.APSPTarget(g)
	log := &trace.Log{}
	res, err := aco.RunTCP(aco.TCPConfig{
		Op:            op,
		Target:        target,
		Servers:       6,
		Procs:         3,
		System:        quorum.NewProbabilistic(6, 3),
		Monotone:      true,
		Seed:          1,
		MaxIterations: 20000,
		DriverConfig:  aco.DriverConfig{OpTimeout: 100 * time.Millisecond},
		Pipelined:     true,
		Trace:         log,
		Crashes: []aco.CrashEvent{
			{At: 0, Server: 1},
			{At: 150 * time.Millisecond, Server: 1, Recover: true},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("pipelined TCP run did not converge through the crash")
	}
	checkPipelinedTrace(t, log, false)
}
