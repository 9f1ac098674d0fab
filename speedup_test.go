package probquorum

// Acceptance gates of the overlap the pipelined and keyspace clients exist
// for, over real loopback sockets. The workload is the APSP iteration shape
// from Alg. 1: each round reads every shared register and writes back the
// owned ones. A blocking client pays one round trip per operation; the
// pipelined client overlaps all the reads of a round (and all the writes),
// and a keyspace client overlaps distinct keys issued from many goroutines.
// Throughput itself is measured by the benchmark under bench/.

import (
	"sync"
	"testing"
	"time"

	"probquorum/internal/metrics"
	"probquorum/internal/msg"
	"probquorum/internal/quorum"
	"probquorum/internal/register"
	"probquorum/internal/replica"
	"probquorum/internal/transport/tcp"
)

const (
	gateServers = 5
	gateRegs    = 12 // registers per round, the APSP round shape
)

// startGateServers launches gateServers loopback servers holding initial.
func startGateServers(tb testing.TB, initial map[msg.RegisterID]msg.Value) []string {
	tb.Helper()
	addrs := make([]string, gateServers)
	for i := range addrs {
		srv, err := tcp.Listen(replica.New(msg.NodeID(i), initial), "127.0.0.1:0")
		if err != nil {
			tb.Fatalf("listen server %d: %v", i, err)
		}
		tb.Cleanup(srv.Close)
		addrs[i] = srv.Addr()
	}
	return addrs
}

// blockingRounds runs the iteration shape one operation at a time and
// returns the number of operations completed.
func blockingRounds(tb testing.TB, c *tcp.Client, rounds int) int {
	tb.Helper()
	ops := 0
	for it := 0; it < rounds; it++ {
		for r := 0; r < gateRegs; r++ {
			if _, err := c.Read(msg.RegisterID(r)); err != nil {
				tb.Fatalf("blocking read: %v", err)
			}
			ops++
		}
		for r := 0; r < gateRegs; r++ {
			if err := c.Write(msg.RegisterID(r), float64(it)); err != nil {
				tb.Fatalf("blocking write: %v", err)
			}
			ops++
		}
	}
	return ops
}

// asyncRounds runs the same shape with every operation of a phase in flight
// at once — writes, then reads when writeFirst, else the other way round —
// over keys drawn by pick, and returns operations completed.
func asyncRounds(tb testing.TB, read func(msg.RegisterID) *register.PendingOp,
	write func(msg.RegisterID, msg.Value) *register.PendingOp,
	pick func([]msg.RegisterID), rounds int, writeFirst bool) int {
	tb.Helper()
	ops := 0
	keys := make([]msg.RegisterID, gateRegs)
	pend := make([]*register.PendingOp, 0, gateRegs)
	for it := 0; it < rounds; it++ {
		pick(keys)
		for phase := 0; phase < 2; phase++ {
			pend = pend[:0]
			for _, k := range keys {
				if (phase == 0) == writeFirst {
					pend = append(pend, write(k, float64(it)))
				} else {
					pend = append(pend, read(k))
				}
			}
			for _, op := range pend {
				if _, err := op.Wait(); err != nil {
					tb.Fatalf("async round: %v", err)
				}
				ops++
			}
		}
	}
	return ops
}

// cycling returns a key picker cycling through keys base, base+1, …,
// base+n-1.
func cycling(base, n int) func([]msg.RegisterID) {
	next := 0
	return func(buf []msg.RegisterID) {
		for i := range buf {
			buf[i] = msg.RegisterID(base + next%n)
			next++
		}
	}
}

// TestPipelineSpeedupTCP is the pipelining gate: on the loopback APSP
// workload, the pipelined client must sustain at least twice the blocking
// client's throughput. The margin is wide in practice (a round's reads
// collapse from gateRegs round-trips to roughly one), so 2x holds even on
// slow shared runners.
func TestPipelineSpeedupTCP(t *testing.T) {
	// 150 rounds puts each measurement window well past scheduler noise
	// (tens of milliseconds); shorter windows flap when the suite runs
	// with other packages contending for cores.
	const rounds = 150
	sys := quorum.NewMajority(gateServers)
	initial := make(map[msg.RegisterID]msg.Value, gateRegs)
	for r := 0; r < gateRegs; r++ {
		initial[msg.RegisterID(r)] = 0.0
	}

	bc, err := tcp.Dial(startGateServers(t, initial), sys, tcp.WithMonotone())
	if err != nil {
		t.Fatal(err)
	}
	defer bc.Close()
	blockingRounds(t, bc, 5) // warm the connections and the monotone cache
	start := time.Now()
	blockingRate := float64(blockingRounds(t, bc, rounds)) / time.Since(start).Seconds()

	pc, err := tcp.DialPipelined(startGateServers(t, initial), sys, tcp.WithMonotone())
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	pipelined := func(n int) int {
		return asyncRounds(t, pc.ReadAsync, pc.WriteAsync, cycling(0, gateRegs), n, false)
	}
	pipelined(5)
	start = time.Now()
	pipeRate := float64(pipelined(rounds)) / time.Since(start).Seconds()

	speedup := pipeRate / blockingRate
	t.Logf("blocking %.0f ops/s, pipelined %.0f ops/s, speedup %.2fx", blockingRate, pipeRate, speedup)
	if raceEnabled {
		// The race detector serializes the instrumented goroutines, which
		// flattens exactly the overlap this test measures; the workload above
		// still ran under the detector, which is all -race is for.
		t.Skipf("skipping the 2x threshold under the race detector (measured %.2fx)", speedup)
	}
	if speedup < 2.0 {
		t.Fatalf("pipelined/blocking speedup = %.2fx, want >= 2x", speedup)
	}
}

// keyspaceRounds runs the iteration shape, writes first, from n goroutines
// over one shared keyspace client, each goroutine confined to its own
// disjoint range of keysEach keys.
func keyspaceRounds(tb testing.TB, kc *tcp.KeyspaceClient, n, keysEach, rounds int) int {
	tb.Helper()
	var wg sync.WaitGroup
	ops := make([]int, n)
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ops[g] = asyncRounds(tb, kc.ReadAsync, kc.WriteAsync, cycling(g*keysEach, keysEach), rounds, true)
		}(g)
	}
	wg.Wait()
	total := 0
	for _, o := range ops {
		total += o
	}
	return total
}

// TestKeyspaceSpeedupTCP is the concurrency gate: 8 goroutines issuing on
// distinct keys through one keyspace client must sustain at least twice the
// single-key throughput. A single key can never overlap its own operations —
// the per-register queue admits one at a time, so the single-key figure is
// round-trip bound. Distinct keys route to independent queues and shard
// engines, and the shared per-server send queues coalesce all eight
// goroutines' traffic into common batch frames; that overlap is what the 2x
// measures. Monotone caching is off on both sides so every read really
// crosses the wire.
func TestKeyspaceSpeedupTCP(t *testing.T) {
	const rounds = 40
	sys := quorum.NewMajority(gateServers)

	solo, err := tcp.DialKeyspace(startGateServers(t, nil), sys, tcp.DefaultKeyspaceShards)
	if err != nil {
		t.Fatal(err)
	}
	defer solo.Close()
	single := func(n int) int {
		return asyncRounds(t, solo.ReadAsync, solo.WriteAsync, cycling(0, 1), n, true)
	}
	single(5) // warm the connections
	start := time.Now()
	soloRate := float64(single(rounds)) / time.Since(start).Seconds()

	conc, err := tcp.DialKeyspace(startGateServers(t, nil), sys, tcp.DefaultKeyspaceShards)
	if err != nil {
		t.Fatal(err)
	}
	defer conc.Close()
	keyspaceRounds(t, conc, 8, 64, 5)
	start = time.Now()
	concRate := float64(keyspaceRounds(t, conc, 8, 64, rounds)) / time.Since(start).Seconds()

	speedup := concRate / soloRate
	t.Logf("single-key %.0f ops/s, 8 goroutines on distinct keys %.0f ops/s, speedup %.2fx",
		soloRate, concRate, speedup)
	if raceEnabled {
		// The detector serializes the instrumented goroutines, flattening
		// exactly the overlap under test; running the workload is all -race
		// is for here.
		t.Skipf("skipping the 2x threshold under the race detector (measured %.2fx)", speedup)
	}
	if speedup < 2.0 {
		t.Fatalf("8-goroutine/solo speedup = %.2fx, want >= 2x", speedup)
	}
}

// TestKeyspaceBatchCoalescing pins the wire-side claim of the keyspace:
// operations on different keys — different engines, different shards —
// still coalesce into shared multi-element batch frames, because all shards
// feed the same per-server send queues. A round of writes across many keys
// must produce at least one flushed frame carrying more than one element.
func TestKeyspaceBatchCoalescing(t *testing.T) {
	hist := metrics.NewIntHistogram()
	kc, err := tcp.DialKeyspace(startGateServers(t, nil), quorum.NewMajority(gateServers),
		tcp.DefaultKeyspaceShards, tcp.WithMaxBatch(16), tcp.WithBatchHistogram(hist))
	if err != nil {
		t.Fatal(err)
	}
	defer kc.Close()

	const keys = 64
	for round := 0; round < 3; round++ {
		pend := make([]*register.PendingOp, 0, keys)
		for k := 0; k < keys; k++ {
			pend = append(pend, kc.WriteAsync(msg.RegisterID(k), round))
		}
		for _, op := range pend {
			if _, err := op.Wait(); err != nil {
				t.Fatalf("write: %v", err)
			}
		}
	}
	if max := hist.Max(); max < 2 {
		t.Fatalf("largest flushed batch carried %d element(s); cross-key coalescing never happened", max)
	}
	t.Logf("largest cross-key batch frame: %d elements (mean %.1f)", hist.Max(), hist.Mean())
}
