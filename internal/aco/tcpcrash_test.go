package aco_test

import (
	"errors"
	"testing"
	"time"

	"probquorum/internal/aco"
	"probquorum/internal/apps/semiring"
	"probquorum/internal/graph"
	"probquorum/internal/quorum"
	"probquorum/internal/register"
)

// TestRunTCPConvergesThroughCrashAndRecovery is the end-to-end availability
// test over real sockets: a replica crashes right at the start and recovers
// once process 0 has completed two iterations; processes ride out the outage by
// replacing the member whose connection the crashed store closes, and the
// iteration still reaches the fixed point.
func TestRunTCPConvergesThroughCrashAndRecovery(t *testing.T) {
	g := graph.Chain(6)
	op := semiring.NewAPSP(g)
	target := semiring.APSPTarget(g)
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
		Crashes: []aco.CrashEvent{
			{At: 0, Server: 1},
			{AfterIteration: 2, Server: 1, Recover: true},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("TCP run did not converge through crash and recovery")
	}
	if !aco.VectorsEqual(op, res.Final, target) {
		t.Fatal("TCP final vector differs from the fixed point")
	}
	// A crash the transport signals costs top-ups, not retries.
	if res.TopUps == 0 {
		t.Fatal("no member was replaced; the crash was not exercised")
	}
}

// TestRunTCPCrashScheduleRequiresTimeout mirrors the simulator's rule: a
// crash schedule without OpTimeout can only hang, so RunTCP rejects it.
func TestRunTCPCrashScheduleRequiresTimeout(t *testing.T) {
	g := graph.Chain(4)
	_, err := aco.RunTCP(aco.TCPConfig{
		Op:      semiring.NewAPSP(g),
		Target:  semiring.APSPTarget(g),
		Servers: 4,
		Procs:   2,
		System:  quorum.NewProbabilistic(4, 2),
		Seed:    1,
		Crashes: []aco.CrashEvent{{At: time.Millisecond, Server: 0}},
	})
	if err == nil {
		t.Fatal("crash schedule without OpTimeout accepted")
	}
	_, err = aco.RunTCP(aco.TCPConfig{
		Op:           semiring.NewAPSP(g),
		Target:       semiring.APSPTarget(g),
		Servers:      4,
		Procs:        2,
		System:       quorum.NewProbabilistic(4, 2),
		Seed:         1,
		DriverConfig: aco.DriverConfig{OpTimeout: 10 * time.Millisecond},
		Crashes:      []aco.CrashEvent{{At: time.Millisecond, Server: 99}},
	})
	if err == nil {
		t.Fatal("out-of-range crash server accepted")
	}
}

// TestRunTCPAllCrashedFailsFast: with every replica permanently crashed and
// a finite retry budget, the run surfaces the typed quorum-unavailability
// error promptly — processes stop on the first failure instead of spinning to
// the (deliberately huge) round cap.
func TestRunTCPAllCrashedFailsFast(t *testing.T) {
	g := graph.Chain(4)
	start := time.Now()
	_, err := aco.RunTCP(aco.TCPConfig{
		Op:        semiring.NewAPSP(g),
		Target:    semiring.APSPTarget(g),
		Servers:   4,
		Procs:     2,
		System:    quorum.NewProbabilistic(4, 2),
		Seed:      3,
		MaxRounds: 1_000_000,
		DriverConfig: aco.DriverConfig{
			OpTimeout: 30 * time.Millisecond,
			Retries:   3,
		},
		Crashes: []aco.CrashEvent{
			{At: 0, Server: 0},
			{At: 0, Server: 1},
			{At: 0, Server: 2},
			{At: 0, Server: 3},
		},
	})
	if err == nil {
		t.Fatal("run with every replica crashed reported no error")
	}
	if !errors.Is(err, register.ErrQuorumUnavailable) {
		t.Fatalf("err = %v, want register.ErrQuorumUnavailable", err)
	}
	// OpTimeout×retries bounds each op; the first failure stops
	// the rest. Far below what 10^6 rounds would cost.
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("failure took %v; processes did not stop promptly", elapsed)
	}
}
