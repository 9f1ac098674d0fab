package aco_test

import (
	"reflect"
	"testing"
	"time"

	"probquorum/internal/aco"
	"probquorum/internal/apps/semiring"
	"probquorum/internal/graph"
	"probquorum/internal/quorum"
	"probquorum/internal/rng"
)

func crashConfig(n, k int, seed uint64) aco.SimConfig {
	g := graph.Chain(n)
	return aco.SimConfig{
		Op:           semiring.NewAPSP(g),
		Target:       semiring.APSPTarget(g),
		Servers:      n,
		System:       quorum.NewProbabilistic(n, k),
		Monotone:     true,
		Delay:        rng.Constant{D: time.Millisecond},
		Seed:         seed,
		DriverConfig: aco.DriverConfig{OpTimeout: 10 * time.Millisecond},
		MaxRounds:    2000,
	}
}

func TestConvergesDespiteCrashedMinority(t *testing.T) {
	// Crash 3 of 10 servers almost immediately: probabilistic quorums of 3
	// keep finding live members via retries (availability n-k+1 = 8).
	cfg := crashConfig(10, 3, 1)
	cfg.Crashes = []aco.CrashEvent{
		{At: 2 * time.Millisecond, Server: 0},
		{At: 2 * time.Millisecond, Server: 1},
		{At: 3 * time.Millisecond, Server: 2},
	}
	res, err := aco.RunSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not converge with a crashed minority")
	}
	if res.Retries == 0 {
		t.Fatal("no retries recorded; crashes were not exercised")
	}
}

func TestConvergesThroughCrashAndRecovery(t *testing.T) {
	// A server crashes mid-run and recovers later; the run rides through.
	cfg := crashConfig(8, 4, 2)
	cfg.Crashes = []aco.CrashEvent{
		{At: 5 * time.Millisecond, Server: 3},
		{At: 40 * time.Millisecond, Server: 3, Recover: true},
	}
	res, err := aco.RunSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not converge through crash and recovery")
	}
}

func TestStallsWhenTooFewSurvive(t *testing.T) {
	// Crash all but k-1 servers: no read or write quorum can ever complete,
	// so the run must hit the round cap without converging (and without
	// hanging — the event cap on retries keeps virtual time advancing).
	cfg := crashConfig(6, 3, 3)
	cfg.MaxRounds = 20
	cfg.MaxEvents = 200_000 // bound the retry storm
	cfg.Crashes = []aco.CrashEvent{
		{At: time.Millisecond, Server: 0},
		{At: time.Millisecond, Server: 1},
		{At: time.Millisecond, Server: 2},
		{At: time.Millisecond, Server: 3},
	}
	res, err := aco.RunSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Fatal("converged with only 2 live servers and k=3")
	}
}

func TestCrashScheduleValidation(t *testing.T) {
	cfg := crashConfig(6, 2, 4)
	cfg.OpTimeout = 0
	cfg.Crashes = []aco.CrashEvent{{At: time.Millisecond, Server: 0}}
	if _, err := aco.RunSim(cfg); err == nil {
		t.Fatal("crash schedule without OpTimeout accepted")
	}
	cfg = crashConfig(6, 2, 4)
	cfg.Crashes = []aco.CrashEvent{{At: time.Millisecond, Server: 99}}
	if _, err := aco.RunSim(cfg); err == nil {
		t.Fatal("out-of-range crash server accepted")
	}
	cfg = crashConfig(6, 2, 4)
	cfg.Crashes = []aco.CrashEvent{{At: -time.Millisecond, Server: 0}}
	if _, err := aco.RunSim(cfg); err == nil {
		t.Fatal("negative crash time accepted")
	}
	cfg = crashConfig(6, 2, 4)
	cfg.Crashes = []aco.CrashEvent{{AfterIteration: -1, Server: 0}}
	if _, err := aco.RunSim(cfg); err == nil {
		t.Fatal("negative progress trigger accepted")
	}
}

// TestRunSimProgressCrashes: the simulator honours crashes keyed to process
// 0's progress, as RunTCP does. Two of six replicas go silent after process
// 0's first iteration and come back after its fifth; the deadlines they cost
// show as retries, the run replays exactly, and it converges.
func TestRunSimProgressCrashes(t *testing.T) {
	cfg := crashConfig(6, 2, 4)
	cfg.Crashes = []aco.CrashEvent{
		{AfterIteration: 1, Server: 0},
		{AfterIteration: 1, Server: 1},
		{AfterIteration: 5, Server: 0, Recover: true},
		{AfterIteration: 5, Server: 1, Recover: true},
	}
	a, err := aco.RunSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := aco.RunSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Retries == 0 {
		t.Fatal("no retries recorded; the progress-keyed crashes did not fire")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different runs:\n%+v\n%+v", a, b)
	}
	if !a.Converged {
		t.Fatal("did not converge through progress-keyed crashes")
	}
}

func TestTimeoutWithoutCrashesIsHarmless(t *testing.T) {
	// A generous timeout on a healthy cluster: no retries, same rounds as
	// without the timeout.
	base := crashConfig(8, 3, 5)
	base.OpTimeout = 0
	plain, err := aco.RunSim(base)
	if err != nil {
		t.Fatal(err)
	}
	timed := crashConfig(8, 3, 5)
	timed.OpTimeout = time.Second
	withTO, err := aco.RunSim(timed)
	if err != nil {
		t.Fatal(err)
	}
	if withTO.Retries != 0 {
		t.Fatalf("healthy cluster retried %d times", withTO.Retries)
	}
	if withTO.Rounds != plain.Rounds {
		t.Fatalf("timeout changed rounds: %d vs %d", withTO.Rounds, plain.Rounds)
	}
}
