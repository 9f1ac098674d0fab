package register_test

// Keyspace unit tests over a synchronous in-process loopback: each send
// applies the request to a replica.Store and delivers the reply inline, so
// every operation completes by the time its submit call returns. The
// loopback exercises the full shard routing path (op-id residue classes)
// without a transport, which is what lets the memory gates drive a million
// keys in a unit test.

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"probquorum/internal/metrics"
	"probquorum/internal/msg"
	"probquorum/internal/quorum"
	"probquorum/internal/register"
	"probquorum/internal/replica"
	"probquorum/internal/rng"
	"probquorum/internal/transport"
)

// loopbackKeyspace builds a keyspace whose sends apply synchronously to
// fresh replica stores. Engines are strided per the keyspace contract.
func loopbackKeyspace(t testing.TB, servers, shards int, sys quorum.System,
	eopts []register.Option, popts ...register.PipelineOption) (*register.Keyspace, []*replica.Store) {
	t.Helper()
	stores := make([]*replica.Store, servers)
	for i := range stores {
		stores[i] = replica.New(msg.NodeID(i), nil)
	}
	var ks *register.Keyspace
	send := func(server int, req any) {
		if reply, ok := stores[server].Apply(req); ok {
			ks.Deliver(server, reply)
		}
	}
	engines := make([]*register.Engine, shards)
	for i := range engines {
		opts := append([]register.Option{
			register.WithOpStride(uint64(i), uint64(shards)),
		}, eopts...)
		engines[i] = register.NewEngine(1, sys,
			rng.Derive(7, fmt.Sprintf("keyspace_test.%d", i)), opts...)
	}
	ks = register.NewKeyspace(engines, send, popts...)
	return ks, stores
}

// TestKeyspaceRoutesAcrossShards drives writes and reads over enough keys
// to populate every shard and checks each key round-trips its own value —
// with zero stale drops, i.e. every reply reached the shard that issued it.
func TestKeyspaceRoutesAcrossShards(t *testing.T) {
	var tc metrics.TransportCounters
	ks, _ := loopbackKeyspace(t, 5, 8, quorum.NewMajority(5), nil,
		register.PipeCounters(&tc))
	const keys = 200
	used := make(map[int]bool)
	for k := 0; k < keys; k++ {
		used[ks.ShardFor(msg.RegisterID(k))] = true
		if err := ks.Write(msg.RegisterID(k), 1000+k); err != nil {
			t.Fatalf("write key %d: %v", k, err)
		}
	}
	for k := 0; k < keys; k++ {
		got, err := ks.Read(msg.RegisterID(k))
		if err != nil {
			t.Fatalf("read key %d: %v", k, err)
		}
		if got.Val != 1000+k {
			t.Fatalf("key %d read %v, want %d", k, got.Val, 1000+k)
		}
	}
	if len(used) != 8 {
		t.Errorf("200 keys touched %d of 8 shards; hash not spreading", len(used))
	}
	if n := tc.StaleDrops.Value(); n != 0 {
		t.Errorf("stale drops = %d, want 0 (reply misrouted across shards)", n)
	}
	if ks.InFlight() != 0 {
		t.Errorf("in-flight = %d after quiescence", ks.InFlight())
	}
}

// TestKeyspaceUnknownKeyReadsZero pins the documented lazy-key semantics:
// a key never written reads as the zero msg.Tagged on every path.
func TestKeyspaceUnknownKeyReadsZero(t *testing.T) {
	ks, _ := loopbackKeyspace(t, 5, 4, quorum.NewMajority(5), nil)
	for _, key := range []msg.RegisterID{0, 7, 1 << 20} {
		got, err := ks.Read(key)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		if !got.TS.IsZero() || got.Val != nil {
			t.Errorf("unknown key %d read %+v, want zero Tagged", key, got)
		}
		got, err = ks.ReadAtomic(key)
		if err != nil {
			t.Fatalf("atomic read: %v", err)
		}
		if !got.TS.IsZero() || got.Val != nil {
			t.Errorf("unknown key %d atomic-read %+v, want zero Tagged", key, got)
		}
	}
}

// TestKeyspaceRejectsMisconfiguredEngines pins the constructor contract:
// shard counts must be powers of two and every engine must carry the
// matching op-id stride, otherwise replies cannot be routed.
func TestKeyspaceRejectsMisconfiguredEngines(t *testing.T) {
	sys := quorum.NewMajority(3)
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	mustPanic("non-power-of-two shard count", func() {
		engines := make([]*register.Engine, 3)
		for i := range engines {
			engines[i] = register.NewEngine(1, sys, rng.Derive(1, "x"),
				register.WithOpStride(uint64(i), 4))
		}
		register.NewKeyspace(engines, func(int, any) {})
	})
	mustPanic("unstrided engines", func() {
		engines := []*register.Engine{
			register.NewEngine(1, sys, rng.Derive(1, "a")),
			register.NewEngine(1, sys, rng.Derive(1, "b")),
		}
		register.NewKeyspace(engines, func(int, any) {})
	})
	mustPanic("wrong residue", func() {
		engines := []*register.Engine{
			register.NewEngine(1, sys, rng.Derive(1, "a"), register.WithOpStride(1, 2)),
			register.NewEngine(1, sys, rng.Derive(1, "b"), register.WithOpStride(0, 2)),
		}
		register.NewKeyspace(engines, func(int, any) {})
	})
	mustPanic("stride offset out of range", func() {
		register.WithOpStride(4, 4)
	})
	mustPanic("stride not power of two", func() {
		register.WithOpStride(0, 3)
	})
}

// TestKeyspaceConcurrentDistinctKeys hammers the keyspace from 8 goroutines
// on disjoint key ranges — the parallelism claim the striping exists for,
// and a race-detector target for the shared-transport delivery path.
func TestKeyspaceConcurrentDistinctKeys(t *testing.T) {
	ks, stores := loopbackKeyspace(t, 5, 8, quorum.NewMajority(5),
		[]register.Option{register.Monotone()})
	const goroutines, opsEach = 8, 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			base := msg.RegisterID(g * 1000)
			for i := 0; i < opsEach; i++ {
				key := base + msg.RegisterID(i%16)
				if err := ks.Write(key, g*100000+i); err != nil {
					t.Errorf("write: %v", err)
					return
				}
				got, err := ks.Read(key)
				if err != nil {
					t.Errorf("read: %v", err)
					return
				}
				v, ok := got.Val.(int)
				if !ok || v/100000 != g {
					t.Errorf("goroutine %d read foreign value %v from key %d", g, got.Val, key)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	var reads, writes int64
	for _, s := range stores {
		r, w := s.Stats()
		reads, writes = reads+r, writes+w
	}
	if reads == 0 || writes == 0 {
		t.Fatalf("stores saw reads=%d writes=%d", reads, writes)
	}
}

// TestKeyspaceAllocGate pins the keyspace's steady-state per-operation
// allocations to the direct pipeline path: the shard hop adds zero — same
// sessions, same queues, no routing-table entries.
func TestKeyspaceAllocGate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	sys := quorum.NewMajority(5)

	stores := make([]*replica.Store, 5)
	for i := range stores {
		stores[i] = replica.New(msg.NodeID(i), nil)
	}
	var pl *register.Pipeline
	plSend := func(server int, req any) {
		if reply, ok := stores[server].Apply(req); ok {
			pl.Deliver(server, reply)
		}
	}
	pl = register.NewPipeline(
		register.NewEngine(1, sys, rng.Derive(3, "allocgate.pipeline")), plSend)

	ks, _ := loopbackKeyspace(t, 5, 8, sys, nil)

	const key = msg.RegisterID(42)
	// Warm both paths: first ops allocate session maps, queue entries, and
	// write-timestamp slots that steady state recycles.
	for i := 0; i < 64; i++ {
		if err := pl.Write(key, i); err != nil {
			t.Fatal(err)
		}
		if _, err := pl.Read(key); err != nil {
			t.Fatal(err)
		}
		if err := ks.Write(key, i); err != nil {
			t.Fatal(err)
		}
		if _, err := ks.Read(key); err != nil {
			t.Fatal(err)
		}
	}
	plAllocs := testing.AllocsPerRun(200, func() {
		if err := pl.Write(key, 7); err != nil {
			t.Fatal(err)
		}
		if _, err := pl.Read(key); err != nil {
			t.Fatal(err)
		}
	})
	ksAllocs := testing.AllocsPerRun(200, func() {
		if err := ks.Write(key, 7); err != nil {
			t.Fatal(err)
		}
		if _, err := ks.Read(key); err != nil {
			t.Fatal(err)
		}
	})
	if ksAllocs > plAllocs {
		t.Errorf("keyspace path allocates %.1f/op-pair, direct pipeline %.1f — sharding added allocations",
			ksAllocs, plAllocs)
	}

	// Unboxed delivery: replies arrive through the concrete ReplySink methods
	// (the transport.BindReplies path the TCP binary read loop uses) instead
	// of being boxed into Deliver's any. De-boxing must not cost allocations
	// over the boxed path — that is its whole point.
	cstores := make([]*replica.Store, 5)
	for i := range cstores {
		cstores[i] = replica.New(msg.NodeID(i), nil)
	}
	var ksc *register.Keyspace
	cSend := func(server int, req any) {
		reply, ok := cstores[server].Apply(req)
		if !ok {
			return
		}
		switch m := reply.(type) {
		case msg.ReadReply:
			ksc.ReadReply(server, m)
		case msg.WriteAck:
			ksc.WriteAck(server, m)
		case msg.StaleEpoch:
			ksc.StaleEpoch(server, m)
		default:
			ksc.Deliver(server, reply)
		}
	}
	cEngines := make([]*register.Engine, 8)
	for i := range cEngines {
		cEngines[i] = register.NewEngine(1, sys,
			rng.Derive(7, fmt.Sprintf("allocgate.unboxed.%d", i)),
			register.WithOpStride(uint64(i), 8))
	}
	ksc = register.NewKeyspace(cEngines, cSend)
	for i := 0; i < 64; i++ {
		if err := ksc.Write(key, i); err != nil {
			t.Fatal(err)
		}
		if _, err := ksc.Read(key); err != nil {
			t.Fatal(err)
		}
	}
	unboxedAllocs := testing.AllocsPerRun(200, func() {
		if err := ksc.Write(key, 7); err != nil {
			t.Fatal(err)
		}
		if _, err := ksc.Read(key); err != nil {
			t.Fatal(err)
		}
	})
	if unboxedAllocs > ksAllocs {
		t.Errorf("unboxed reply path allocates %.1f/op-pair, boxed Deliver %.1f — de-boxing added allocations",
			unboxedAllocs, ksAllocs)
	}
	t.Logf("allocs per write+read pair: pipeline %.1f, keyspace %.1f, keyspace-unboxed %.1f",
		plAllocs, ksAllocs, unboxedAllocs)

	// One shard, the shape of every tcp.Dial client: a coalesced reply frame
	// goes straight to the shard's pipeline and must complete its operations
	// without a single allocation — no demux scratch, pooled or not. Only the
	// flush is measured, so the count is taken by hand; like AllocsPerRun it
	// runs on one P and judges the mean per frame, so a stray allocation by
	// another goroutine cannot fail the gate but one per frame does.
	ft := &frameTransport{loopback: *newLoopback(1)}
	one := register.NewKeyspaceOver([]*register.Engine{
		register.NewEngine(1, quorum.NewAll(1), rng.Derive(7, "allocgate.oneshard")),
	}, ft)
	if _, direct := ft.rs.(*register.Pipeline); !direct {
		t.Errorf("one-shard keyspace bound %T for frames, want its pipeline: nothing to demultiplex", ft.rs)
	}
	const frame, frames = 8, 200
	var frameAllocs uint64
	var ms runtime.MemStats
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for round := 0; round < 64+frames; round++ {
		for k := msg.RegisterID(0); k < frame; k++ {
			one.ReadAsync(k)
		}
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		ft.flush()
		runtime.ReadMemStats(&ms)
		if round >= 64 { // past warm-up: queues, sessions and pools recycled
			frameAllocs += ms.Mallocs - before
		}
	}
	if frameAllocs/frames != 0 || one.InFlight() != 0 {
		t.Errorf("one-shard keyspace: %d allocations over %d frames of %d replies (in flight after: %d), want 0 per frame",
			frameAllocs, frames, frame, one.InFlight())
	}
}

// frameTransport is a loopback that holds every read reply back until flush,
// which hands them all to the bound ReplySink as one frame — a server's
// coalesced reply batch.
type frameTransport struct {
	loopback
	rs    transport.ReplySink
	reads []msg.ReadReply
}

func (f *frameTransport) BindReplies(rs transport.ReplySink) bool { f.rs = rs; return true }

func (f *frameTransport) Send(server int, req any) error {
	if reply, ok := f.stores[server].Apply(req); ok {
		f.reads = append(f.reads, reply.(msg.ReadReply))
	}
	return nil
}

func (f *frameTransport) flush() {
	f.rs.ReplyBatch(0, f.reads, nil)
	f.reads = f.reads[:0]
}

// TestKeyspacesShareOneDemux: three clients, two shards each, over one
// transport. Residues tile 4 blocks of 2 — one block nobody holds — and one
// frame carrying every client's replies, plus a reply addressed to the empty
// block, is bucketed once: each client's operations complete, and the
// stray reply is dropped without reaching any client.
func TestKeyspacesShareOneDemux(t *testing.T) {
	ft := &frameTransport{loopback: *newLoopback(1)}
	var tc metrics.TransportCounters
	groups := make([][]*register.Engine, 3)
	opts := make([][]register.PipelineOption, 3)
	for i := range groups {
		for j := 0; j < 2; j++ {
			groups[i] = append(groups[i], register.NewEngine(int32(i+1), quorum.NewAll(1),
				rng.Derive(7, fmt.Sprintf("shared.%d.%d", i, j)), register.WithOpStride(uint64(2*i+j), 8)))
		}
		opts[i] = []register.PipelineOption{register.PipeCounters(&tc)}
	}
	clients := register.NewKeyspacesOver(ft, groups, opts)
	var ops []*register.PendingOp
	for _, c := range clients {
		for k := msg.RegisterID(0); k < 8; k++ {
			ops = append(ops, c.ReadAsync(k))
		}
	}
	ft.reads = append(ft.reads, msg.ReadReply{Op: 6}, msg.ReadReply{Op: 7})
	ft.flush()
	for _, op := range ops {
		if _, err := op.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if n := tc.StaleDrops.Value(); n != 0 {
		t.Errorf("stale drops = %d, want 0: the stray replies must not reach a client", n)
	}
	for i, c := range clients {
		if c.Shards() != 2 || c.InFlight() != 0 {
			t.Errorf("client %d: %d shards, %d in flight; want 2 and 0", i, c.Shards(), c.InFlight())
		}
	}

	defer func() {
		if recover() == nil {
			t.Error("clients of unequal shard counts: expected panic")
		}
	}()
	register.NewKeyspacesOver(ft, [][]*register.Engine{groups[0], groups[1][:1]}, opts[:2])
}

// TestKeyspaceIdleKeyBytes bounds the memory a key costs after it has gone
// idle, at one million keys: once its operations drain, a key holds no
// queue entry, no session, no in-flight slot — only the writer's timestamp
// counter client-side and the installed value server-side survive.
func TestKeyspaceIdleKeyBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("memory accounting differs under the race detector")
	}
	if testing.Short() {
		t.Skip("1M-key sweep in -short mode")
	}
	const keys = 1 << 20
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	ks, stores := loopbackKeyspace(t, 1, 16, quorum.NewAll(1), nil)
	for k := 0; k < keys; k++ {
		if err := ks.Write(msg.RegisterID(k), nil); err != nil {
			t.Fatalf("write key %d: %v", k, err)
		}
	}
	if ks.InFlight() != 0 {
		t.Fatalf("in-flight = %d after quiescence", ks.InFlight())
	}

	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	perKey := float64(after.HeapAlloc-before.HeapAlloc) / keys
	t.Logf("idle-key cost: %.1f B/key across client and server (%d keys)", perKey, keys)
	// Budget: ~35 B client-side (the engine's write-timestamp map entry, the
	// one per-key map left) plus ~33 B server-side (a 25 B table slot at the
	// occupancy the store's growth rule allows; a nil value needs no more).
	// 100 B catches a store that went back to a map of boxed values (+60 B)
	// as well as any regression that retains per-key queues, sessions, or
	// in-flight entries (each would add hundreds of bytes per key).
	if perKey > 100 {
		t.Errorf("idle key costs %.1f B, want <= 100 B", perKey)
	}
	if got := stores[0].Keys(); got != keys {
		t.Errorf("server materialized %d keys, want %d", got, keys)
	}
	runtime.KeepAlive(ks)
}
