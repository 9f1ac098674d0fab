package aco_test

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"probquorum/internal/aco"
	"probquorum/internal/apps/semiring"
	"probquorum/internal/graph"
	"probquorum/internal/metrics"
	"probquorum/internal/quorum"
	"probquorum/internal/register"
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

// TestRunSimPipelinedCrashAndRepair: the pipelined sim runs the engine's
// whole fault path on virtual time. Through a crash schedule the deadlines
// fire (Retries > 0) and re-issue stalled operations on fresh quorums until
// the run converges; read repair rides the same engine.
func TestRunSimPipelinedCrashAndRepair(t *testing.T) {
	g := graph.Chain(3)
	base := aco.SimConfig{
		Op:        semiring.NewAPSP(g),
		Servers:   3,
		System:    quorum.NewMajority(3),
		Pipelined: true,
		Delay:     rng.Constant{D: time.Millisecond},
	}
	crashed := base
	crashed.Servers, crashed.System = 5, quorum.NewProbabilistic(5, 3)
	crashed.OpTimeout = 10 * time.Millisecond
	crashed.Crashes = []aco.CrashEvent{
		{At: time.Millisecond, Server: 0},
		{At: 30 * time.Millisecond, Server: 0, Recover: true},
	}
	res, err := aco.RunSim(crashed)
	if err != nil || !res.Converged {
		t.Fatalf("pipelined sim through a crash: converged=%v, err=%v", res.Converged, err)
	}
	if res.Retries == 0 {
		t.Fatal("no deadline fired: the crash schedule was not exercised")
	}
	withRepair := base
	withRepair.ReadRepair = true
	if res, err := aco.RunSim(withRepair); err != nil || !res.Converged {
		t.Fatalf("pipelined sim with read repair: converged=%v, err=%v", res.Converged, err)
	}
}

// TestRunSimReturnsExhaustedBudget: with every replica crashed, an
// operation burns its whole retry budget on virtual-time deadlines and the
// run fails with ErrQuorumUnavailable — in both modes, not as a silent
// "not converged".
func TestRunSimReturnsExhaustedBudget(t *testing.T) {
	for _, pipelined := range []bool{false, true} {
		g := graph.Chain(3)
		cfg := aco.SimConfig{
			Op:           semiring.NewAPSP(g),
			Servers:      3,
			System:       quorum.NewMajority(3),
			Pipelined:    pipelined,
			Delay:        rng.Constant{D: time.Millisecond},
			DriverConfig: aco.DriverConfig{OpTimeout: 10 * time.Millisecond, Retries: 2},
		}
		for srv := 0; srv < cfg.Servers; srv++ {
			cfg.Crashes = append(cfg.Crashes, aco.CrashEvent{Server: srv})
		}
		_, err := aco.RunSim(cfg)
		if !errors.Is(err, register.ErrQuorumUnavailable) {
			t.Fatalf("pipelined=%v: RunSim error = %v, want ErrQuorumUnavailable", pipelined, err)
		}
	}
}

// TestRunSimDeterministicUnderFaults: the same seed replays the same run —
// result and trace — with crashes and deadlines in play, in both modes. A
// wall-clock read anywhere on the sim path (a deadline, a trace stamp)
// would break it.
func TestRunSimDeterministicUnderFaults(t *testing.T) {
	for _, pipelined := range []bool{false, true} {
		run := func() (aco.SimResult, []trace.Op) {
			cfg := crashConfig(8, 3, 9)
			cfg.Pipelined = pipelined
			cfg.Retries = 8
			cfg.Crashes = []aco.CrashEvent{
				{At: 2 * time.Millisecond, Server: 0},
				{At: 2 * time.Millisecond, Server: 5},
				{At: 25 * time.Millisecond, Server: 0, Recover: true},
			}
			cfg.Trace = &trace.Log{}
			res, err := aco.RunSim(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return res, cfg.Trace.Ops()
		}
		resA, opsA := run()
		resB, opsB := run()
		if resA.Retries == 0 {
			t.Fatalf("pipelined=%v: no deadline fired; the faults were not exercised", pipelined)
		}
		if !reflect.DeepEqual(resA, resB) {
			t.Fatalf("pipelined=%v: results differ:\n a=%+v\n b=%+v", pipelined, resA, resB)
		}
		if !reflect.DeepEqual(opsA, opsB) {
			t.Fatalf("pipelined=%v: traces differ (%d vs %d ops)", pipelined, len(opsA), len(opsB))
		}
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

// TestRunTCPPipelinedSmallQuorums: pipelined monotone workers still reach the
// exact fixed point when every quorum is 2 of 6 servers, far below the strict
// threshold, so reads routinely miss the latest write and only the monotone
// cache and repetition carry the iteration.
func TestRunTCPPipelinedSmallQuorums(t *testing.T) {
	g := graph.Chain(6)
	op := semiring.NewAPSP(g)
	target := semiring.APSPTarget(g)
	log := &trace.Log{}
	gauge := &metrics.Gauge{}
	res, err := aco.RunTCP(aco.TCPConfig{
		Op:        op,
		Target:    target,
		Servers:   6,
		Procs:     3,
		System:    quorum.NewProbabilistic(6, 2),
		Monotone:  true,
		Seed:      2,
		Pipelined: true,
		Trace:     log,
		Gauge:     gauge,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("pipelined TCP run over 2-of-6 quorums did not converge")
	}
	if !aco.VectorsEqual(op, res.Final, target) {
		t.Fatal("pipelined TCP final vector differs from the fixed point")
	}
	checkPipelinedTrace(t, log, true)
	if gauge.Max() < 2 {
		t.Fatalf("in-flight gauge high-watermark = %d, want >= 2", gauge.Max())
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
		Op:           op,
		Target:       target,
		Servers:      6,
		Procs:        3,
		System:       quorum.NewProbabilistic(6, 3),
		Monotone:     true,
		Seed:         1,
		MaxRounds:    20000,
		DriverConfig: aco.DriverConfig{OpTimeout: 100 * time.Millisecond},
		Pipelined:    true,
		Trace:        log,
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
