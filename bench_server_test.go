package probquorum

// Server hot-path benchmarks for reply coalescing. Two families:
//
//   BenchmarkServerScaling    — a conns x GOMAXPROCS throughput curve,
//                               showing how aggregate ops/s behaves as client
//                               connections multiply.
//   BenchmarkServerCoalescing — the two deeply pipelined workloads reply
//                               coalescing exists for: several request
//                               frames arrive per read, and the serve loop
//                               folds their replies into one batch frame
//                               and one syscall.
//
// scripts/bench.sh collects both into BENCH_server.json. The coalescing
// workloads were once PAIRED against a server writing every reply frame
// inline (1.33x / 1.38x, CHANGES.md PR 9); that arm is retired with the
// inline serve loop, and the coalesced_ops/s series continues unpaired.

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"probquorum/internal/msg"
	"probquorum/internal/quorum"
	"probquorum/internal/register"
	"probquorum/internal/replica"
	"probquorum/internal/transport/tcp"
)

const (
	svrBenchServers = 5
	// svrPairWidth is the in-flight phase width for the coalescing pipelined
	// arm: wide enough that each server sees several back-to-back batch-16
	// request frames per phase on one connection, which is the regime reply
	// coalescing exists for.
	svrPairWidth = 256
	// svrCurveWidth is the per-client phase width in the scaling curve —
	// the standard APSP round shape.
	svrCurveWidth = 12
	// svrKsWidth is the per-goroutine phase width for the coalescing keyspace
	// arm. The shared ksRounds shape (width 12) measures the APSP round;
	// the coalescing arm wants the deeply pipelined regime, so each of
	// the 8 goroutines keeps this many operations in flight per phase.
	svrKsWidth = 48
)

// svrKsRounds is ksConcurrentRounds with the phase width as a parameter:
// n goroutines over one shared keyspace client, each confined to its own
// disjoint key range, driving write-then-read phases width deep.
func svrKsRounds(tb testing.TB, kc *tcp.KeyspaceClient, n, keysEach, width, rounds int) int {
	tb.Helper()
	var wg sync.WaitGroup
	ops := make([]int, n)
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			base := g * keysEach
			next := 0
			keys := make([]msg.RegisterID, width)
			pend := make([]*register.PendingOp, 0, width)
			for it := 0; it < rounds; it++ {
				for i := range keys {
					keys[i] = msg.RegisterID(base + next%keysEach)
					next++
				}
				pend = pend[:0]
				for _, k := range keys {
					pend = append(pend, kc.WriteAsync(k, float64(it)))
				}
				for _, op := range pend {
					if _, err := op.Wait(); err != nil {
						tb.Errorf("keyspace write: %v", err)
						return
					}
					ops[g]++
				}
				pend = pend[:0]
				for _, k := range keys {
					pend = append(pend, kc.ReadAsync(k))
				}
				for _, op := range pend {
					if _, err := op.Wait(); err != nil {
						tb.Errorf("keyspace read: %v", err)
						return
					}
					ops[g]++
				}
			}
		}(g)
	}
	wg.Wait()
	total := 0
	for _, o := range ops {
		total += o
	}
	return total
}

func startServerBenchSet(tb testing.TB) []string {
	tb.Helper()
	addrs := make([]string, svrBenchServers)
	for i := range addrs {
		// No initial contents: registers materialize on first write, so
		// every client can use a private disjoint range.
		srv, err := tcp.Listen(replica.New(msg.NodeID(i), nil), "127.0.0.1:0")
		if err != nil {
			tb.Fatalf("listen server %d: %v", i, err)
		}
		tb.Cleanup(srv.Close)
		addrs[i] = srv.Addr()
	}
	return addrs
}

// svrPipeRounds drives write-then-read phases of the given width on a
// disjoint register range (writes first so reads hit materialized keys).
func svrPipeRounds(tb testing.TB, c *tcp.PipelinedClient, base, width, rounds int) int {
	tb.Helper()
	ops := 0
	pend := make([]*register.PendingOp, 0, width)
	for it := 0; it < rounds; it++ {
		pend = pend[:0]
		for r := 0; r < width; r++ {
			pend = append(pend, c.WriteAsync(msg.RegisterID(base+r), float64(it)))
		}
		for _, op := range pend {
			if _, err := op.Wait(); err != nil {
				tb.Fatalf("pipelined write: %v", err)
			}
			ops++
		}
		pend = pend[:0]
		for r := 0; r < width; r++ {
			pend = append(pend, c.ReadAsync(msg.RegisterID(base+r)))
		}
		for _, op := range pend {
			if _, err := op.Wait(); err != nil {
				tb.Fatalf("pipelined read: %v", err)
			}
			ops++
		}
	}
	return ops
}

// BenchmarkServerScaling sweeps client connections {1,8,64} x GOMAXPROCS
// {2,8} against one coalescing server set. Each client is an independent
// pipelined connection group working a private register range; the metric
// is aggregate ops/s across all clients.
func BenchmarkServerScaling(b *testing.B) {
	const rounds = 2
	sys := quorum.NewMajority(svrBenchServers)

	for _, conns := range []int{1, 8, 64} {
		for _, procs := range []int{2, 8} {
			conns, procs := conns, procs
			b.Run(fmt.Sprintf("conns%d/procs%d", conns, procs), func(b *testing.B) {
				prev := runtime.GOMAXPROCS(procs)
				defer runtime.GOMAXPROCS(prev)

				addrs := startServerBenchSet(b)
				clients := make([]*tcp.PipelinedClient, conns)
				for i := range clients {
					c, err := tcp.DialPipelined(addrs, sys, tcp.WithMonotone(), tcp.WithMaxBatch(16))
					if err != nil {
						b.Fatal(err)
					}
					defer c.Close()
					clients[i] = c
					svrPipeRounds(b, c, i*1024, svrCurveWidth, 1) // warm conns, materialize keys
				}

				ops := make([]int, conns)
				b.ResetTimer()
				start := time.Now()
				for i := 0; i < b.N; i++ {
					var wg sync.WaitGroup
					for g := 0; g < conns; g++ {
						wg.Add(1)
						go func(g int) {
							defer wg.Done()
							ops[g] += svrPipeRounds(b, clients[g], g*1024, svrCurveWidth, rounds)
						}(g)
					}
					wg.Wait()
				}
				total := 0
				for _, o := range ops {
					total += o
				}
				b.ReportMetric(float64(total)/time.Since(start).Seconds(), "ops/s")
			})
		}
	}
}

// BenchmarkServerCoalescing drives the two deep-pipeline workloads against
// one server set each and reports coalesced_ops/s; bench.sh records the
// median of five runs per arm into BENCH_server.json.
func BenchmarkServerCoalescing(b *testing.B) {
	sys := quorum.NewMajority(svrBenchServers)

	b.Run("pipelined-batch16", func(b *testing.B) {
		c, err := tcp.DialPipelined(startServerBenchSet(b), sys, tcp.WithMonotone(), tcp.WithMaxBatch(16))
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		svrPipeRounds(b, c, 0, svrPairWidth, 3) // warm up
		ops := 0
		b.ResetTimer()
		start := time.Now()
		for i := 0; i < b.N; i++ {
			ops += svrPipeRounds(b, c, 0, svrPairWidth, 1)
		}
		b.ReportMetric(float64(ops)/time.Since(start).Seconds(), "coalesced_ops/s")
	})

	b.Run("keyspace-conc8", func(b *testing.B) {
		kc, err := tcp.DialKeyspace(startServerBenchSet(b), sys, tcp.DefaultKeyspaceShards, tcp.WithMonotone(), tcp.WithMaxBatch(16))
		if err != nil {
			b.Fatal(err)
		}
		defer kc.Close()
		svrKsRounds(b, kc, 8, 64, svrKsWidth, 3) // warm up
		ops := 0
		b.ResetTimer()
		start := time.Now()
		for i := 0; i < b.N; i++ {
			ops += svrKsRounds(b, kc, 8, 64, svrKsWidth, 1)
		}
		b.ReportMetric(float64(ops)/time.Since(start).Seconds(), "coalesced_ops/s")
	})
}
