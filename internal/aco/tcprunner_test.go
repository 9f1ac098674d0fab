package aco_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"probquorum/internal/aco"
	"probquorum/internal/apps/semiring"
	"probquorum/internal/graph"
	"probquorum/internal/obs"
	"probquorum/internal/quorum"
	"probquorum/internal/trace"
)

func TestRunTCPAPSP(t *testing.T) {
	g := graph.Chain(6)
	op := semiring.NewAPSP(g)
	target := semiring.APSPTarget(g)
	res, err := aco.RunTCP(aco.TCPConfig{
		Op:       op,
		Target:   target,
		Servers:  6,
		Procs:    3,
		System:   quorum.NewProbabilistic(6, 3),
		Monotone: true,
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("TCP run did not converge")
	}
	if !aco.VectorsEqual(op, res.Final, target) {
		t.Fatal("TCP final vector differs from the fixed point")
	}
	if res.Iterations == 0 {
		t.Fatal("no iterations counted")
	}
}

func TestRunTCPClosureStrict(t *testing.T) {
	g := graph.Ring(5)
	op := semiring.NewClosure(g)
	res, err := aco.RunTCP(aco.TCPConfig{
		Op:      op,
		Target:  semiring.ClosureTarget(g),
		Servers: 5,
		Procs:   5,
		System:  quorum.NewMajority(5),
		Seed:    2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("TCP closure run did not converge")
	}
}

// TestRunTCPOneSocketPerServer: the paper's configuration — chain(34), one
// worker per row, k = 6 of n = 34 — runs its 34 workers as engines on the
// job's one connection set, so every server holds exactly one client
// connection: 34 sockets for the job, not one set per worker.
func TestRunTCPOneSocketPerServer(t *testing.T) {
	g := graph.Chain(34)
	op := semiring.NewAPSP(g)
	res, err := aco.RunTCP(aco.TCPConfig{
		Op: op, Target: semiring.APSPTarget(g),
		Servers: 34, System: quorum.NewProbabilistic(34, 6),
		Monotone: true, Pipelined: true,
		Seed: 1, Obs: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || !aco.VectorsEqual(op, res.Final, semiring.APSPTarget(g)) {
		t.Fatal("job did not converge on the APSP fixed point")
	}
	for i := 0; i < 34; i++ {
		if h := res.Snapshot.Health[fmt.Sprintf("tcp.server.%d", i)]; h.Sessions != 1 {
			t.Errorf("server %d holds %d client connections, want 1", i, h.Sessions)
		}
	}
}

// TestRunTCPLeavesLittleReachable is the per-job cost gate for the paper's
// own application at its own scale — APSP on chain(34) over k = 6 of n = 34,
// two workers on one connection set, so 34 client and 34 server connections
// per job. Connections cost what their traffic costs (send queues and read
// windows grow on demand) and Close releases (no timer keeps a closed client
// reachable), so a finished job leaves well under 1.5 MB behind and
// allocates under 5 MB; pre-sized for the worst case, the same job left
// 5.2 MB and allocated 15.7 MB.
func TestRunTCPLeavesLittleReachable(t *testing.T) {
	if raceEnabled {
		t.Skip("memory accounting differs under the race detector")
	}
	g := graph.Chain(34)
	op, target := semiring.NewAPSP(g), semiring.APSPTarget(g)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, err := aco.RunTCP(aco.TCPConfig{
		Op: op, Target: target,
		Servers: 34, Procs: 2, System: quorum.NewProbabilistic(34, 6),
		Monotone: true, Pipelined: true,
		Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || !aco.VectorsEqual(op, res.Final, target) {
		t.Fatal("job did not converge on the APSP fixed point")
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	const mb = 1 << 20
	left := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / mb
	allocated := float64(after.TotalAlloc-before.TotalAlloc) / mb
	t.Logf("one job: %.2f MB left reachable, %.2f MB allocated", left, allocated)
	if left > 1.5 {
		t.Errorf("a finished job leaves %.2f MB reachable, want < 1.5 MB", left)
	}
	if allocated > 5 {
		t.Errorf("a job allocates %.2f MB, want < 5 MB", allocated)
	}
}

func TestRunTCPAPSPStrict(t *testing.T) {
	g := graph.Chain(6)
	res, err := aco.RunTCP(aco.TCPConfig{
		Op:      semiring.NewAPSP(g),
		Target:  semiring.APSPTarget(g),
		Servers: 6,
		System:  quorum.NewMajority(6),
		Seed:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("strict TCP run did not converge")
	}
	if res.Iterations == 0 || res.Messages == 0 {
		t.Fatalf("counters empty: %+v", res)
	}
}

func TestRunTCPAPSPProbabilisticMonotone(t *testing.T) {
	g := graph.Chain(6)
	res, err := aco.RunTCP(aco.TCPConfig{
		Op:       semiring.NewAPSP(g),
		Target:   semiring.APSPTarget(g),
		Servers:  6,
		System:   quorum.NewProbabilistic(6, 2),
		Monotone: true,
		Seed:     2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("probabilistic monotone TCP run did not converge")
	}
}

func TestRunTCPClosure(t *testing.T) {
	g := graph.Ring(5)
	res, err := aco.RunTCP(aco.TCPConfig{
		Op:       semiring.NewClosure(g),
		Target:   semiring.ClosureTarget(g),
		Servers:  5,
		System:   quorum.NewProbabilistic(5, 3), // 2k>n: strict by pigeonhole
		Monotone: true,
		Seed:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("closure did not converge")
	}
}

func TestRunTCPTraceSatisfiesRegisterSpec(t *testing.T) {
	g := graph.Chain(5)
	log := &trace.Log{}
	res, err := aco.RunTCP(aco.TCPConfig{
		Op:       semiring.NewAPSP(g),
		Target:   semiring.APSPTarget(g),
		Servers:  5,
		System:   quorum.NewProbabilistic(5, 2),
		Monotone: true,
		Seed:     4,
		Trace:    log,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("run did not converge")
	}
	ops := log.Ops()
	if len(ops) == 0 {
		t.Fatal("no operations recorded")
	}
	if err := trace.CheckWellFormed(ops); err != nil {
		t.Fatal(err)
	}
	if err := trace.CheckReadsFrom(ops); err != nil {
		t.Fatal(err)
	}
	if err := trace.CheckMonotone(ops); err != nil {
		t.Fatal(err)
	}
}

func TestRunTCPFewerProcs(t *testing.T) {
	g := graph.Chain(8)
	res, err := aco.RunTCP(aco.TCPConfig{
		Op:      semiring.NewAPSP(g),
		Target:  semiring.APSPTarget(g),
		Servers: 8,
		Procs:   2,
		System:  quorum.NewMajority(8),
		Seed:    5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("2-process run did not converge")
	}
}

// TestRunTCPWithCrashedServers: two of six replicas are down for the whole
// run; k = 2 quorums replace each lost member within the attempt, and the
// job still reaches the fixed point.
func TestRunTCPWithCrashedServers(t *testing.T) {
	g := graph.Chain(6)
	res, err := aco.RunTCP(aco.TCPConfig{
		Op:           semiring.NewAPSP(g),
		Target:       semiring.APSPTarget(g),
		Servers:      6,
		System:       quorum.NewProbabilistic(6, 2),
		Monotone:     true,
		Seed:         11,
		DriverConfig: aco.DriverConfig{OpTimeout: 100 * time.Millisecond},
		Crashes:      []aco.CrashEvent{{At: 0, Server: 0}, {At: 0, Server: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("TCP run did not converge with 2 of 6 servers crashed")
	}
	if res.TopUps == 0 {
		t.Fatal("no member was replaced; the crashes were not exercised")
	}
}

// TestRunTCPRounds: rounds on sockets follow the simulator's definition. One
// process closes a round with every iteration; with several, every round
// takes an iteration of each, so rounds × processes never exceeds the
// iterations.
func TestRunTCPRounds(t *testing.T) {
	g := graph.Chain(8)
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			res, err := aco.RunTCP(aco.TCPConfig{
				Op: semiring.NewAPSP(g), Target: semiring.APSPTarget(g),
				Servers: 8, Procs: procs, System: quorum.NewProbabilistic(8, 3),
				Monotone: true, Seed: 6,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Converged {
				t.Fatal("did not converge")
			}
			t.Logf("%d rounds, %d iterations", res.Rounds, res.Iterations)
			if procs == 1 && int64(res.Rounds) != res.Iterations {
				t.Fatalf("one process: %d rounds for %d iterations, want equal", res.Rounds, res.Iterations)
			}
			if res.Rounds <= 0 || int64(res.Rounds*procs) > res.Iterations {
				t.Fatalf("%d rounds × %d processes against %d iterations", res.Rounds, procs, res.Iterations)
			}
		})
	}
}

// TestRunTCPMaxRounds: a cap of one round stops a job that needs several
// (one process iterating APSP on chain(8) over majorities: a Jacobi sweep a
// round) and reports it as not converged.
func TestRunTCPMaxRounds(t *testing.T) {
	g := graph.Chain(8)
	res, err := aco.RunTCP(aco.TCPConfig{
		Op: semiring.NewAPSP(g), Target: semiring.APSPTarget(g),
		Servers: 5, Procs: 1, System: quorum.NewMajority(5),
		Seed: 7, MaxRounds: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged || res.Rounds != 1 || res.Iterations != 1 {
		t.Fatalf("converged = %v after %d rounds, %d iterations; want false, 1, 1", res.Converged, res.Rounds, res.Iterations)
	}
}

// TestRunTCPEndsQuiet: RunTCP returns only once the operations in flight at
// the stop have completed, so its counters describe a quiet job. On the
// paper's configuration every operation is one round to k = 6 replicas with
// no write-back, so the requests sent are exactly six per operation counted.
func TestRunTCPEndsQuiet(t *testing.T) {
	g := graph.Chain(34)
	for seed := uint64(1); seed <= 5; seed++ {
		res, err := aco.RunTCP(aco.TCPConfig{
			Op: semiring.NewAPSP(g), Target: semiring.APSPTarget(g),
			Servers: 34, Procs: 2, System: quorum.NewProbabilistic(34, 6),
			Monotone: true, Pipelined: true,
			Seed: seed, Obs: obs.NewRegistry(),
		})
		if err != nil {
			t.Fatal(err)
		}
		sent, ops := res.Snapshot.Counters["tcp.client.msgs_sent"], res.Snapshot.Latencies["tcp.client.ops"].Count
		if !res.Converged || ops == 0 || sent != 6*ops {
			t.Fatalf("seed %d: converged = %v, %d requests for %d operations, want 6 each", seed, res.Converged, sent, ops)
		}
	}
}
