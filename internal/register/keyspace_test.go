package register_test

// Keyspace unit tests over a synchronous in-process loopback transport: each
// send applies the request to a replica.Store and delivers the reply inline,
// so every operation completes by the time its submit call returns. The
// loopback exercises the full shard routing path (op-id residue classes)
// without sockets, which is what lets the memory gates drive a million keys
// in a unit test.

import (
	"errors"
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

// loopbackKeyspace builds a keyspace over a loopback of fresh replica
// stores, whose replies reach it boxed through the transport's Sink. Engines
// are strided per the keyspace contract.
func loopbackKeyspace(t testing.TB, servers, shards int, sys quorum.System,
	s register.Settings) (*register.Keyspace, []*replica.Store) {
	t.Helper()
	tr := newLoopback(servers)
	engines := make([]*register.Engine, shards)
	for i := range engines {
		engines[i] = register.MustEngine(s, 1, sys,
			rng.Derive(7, fmt.Sprintf("keyspace_test.%d", i)), register.WithOpStride(uint64(i), uint64(shards)))
	}
	return register.NewKeyspaceOver(engines, tr, register.ApplyPipeline(s)), tr.stores
}

// TestKeyspaceRoutesAcrossShards drives writes and reads over enough keys
// to populate every shard and checks each key round-trips its own value —
// with zero stale drops, i.e. every reply reached the shard that issued it.
func TestKeyspaceRoutesAcrossShards(t *testing.T) {
	var tc metrics.TransportCounters
	ks, _ := loopbackKeyspace(t, 5, 8, quorum.NewMajority(5), register.Settings{Counters: &tc})
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
	ks, _ := loopbackKeyspace(t, 5, 4, quorum.NewMajority(5), register.Settings{})
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
		register.NewKeyspaceOver(engines, newLoopback(3))
	})
	mustPanic("unstrided engines", func() {
		engines := []*register.Engine{
			register.NewEngine(1, sys, rng.Derive(1, "a")),
			register.NewEngine(1, sys, rng.Derive(1, "b")),
		}
		register.NewKeyspaceOver(engines, newLoopback(3))
	})
	mustPanic("wrong residue", func() {
		engines := []*register.Engine{
			register.NewEngine(1, sys, rng.Derive(1, "a"), register.WithOpStride(1, 2)),
			register.NewEngine(1, sys, rng.Derive(1, "b"), register.WithOpStride(0, 2)),
		}
		register.NewKeyspaceOver(engines, newLoopback(3))
	})
	mustPanic("stride offset out of range", func() {
		register.WithOpStride(4, 4)
	})
	mustPanic("stride not power of two", func() {
		register.WithOpStride(0, 3)
	})
}

// TestNewKeyspaceRefusesUnsupportedValue: the simulator's client refuses a
// value outside the wire codec's union as a TCP client does — every write
// entry fails with msg.ErrUnsupportedValue without a single send, a
// callback hears the same error, and the client keeps working.
func TestNewKeyspaceRefusesUnsupportedValue(t *testing.T) {
	type custom struct{ A, B int }
	bad := custom{A: 1, B: 2}
	stores := []*replica.Store{replica.New(0, nil), replica.New(1, nil), replica.New(2, nil)}
	sends := 0
	var cl *register.Keyspace
	send := func(server int, req any) {
		sends++
		if reply, ok := stores[server].Apply(req); ok {
			register.DeliverReply(cl, server, reply)
		}
	}
	cl = register.NewKeyspace(register.NewEngine(1, quorum.NewMajority(3), rng.Derive(1, "refuse")), send)

	var cbErr error
	wait := func(op *register.PendingOp) error { _, err := op.Wait(); return err }
	for name, write := range map[string]func(msg.Value) error{
		"Write":               func(v msg.Value) error { return cl.Write(0, v) },
		"WriteMulti":          func(v msg.Value) error { _, err := cl.WriteMulti(0, v); return err },
		"WriteAsyncFunc":      func(v msg.Value) error { return wait(cl.WriteAsyncFunc(0, v, nil)) },
		"WriteMultiAsyncFunc": func(v msg.Value) error { return wait(cl.WriteMultiAsyncFunc(0, v, nil)) },
		"callback": func(v msg.Value) error {
			cbErr = nil
			err := wait(cl.WriteAsyncFunc(0, v, func(_ msg.Tagged, err error) { cbErr = err }))
			if cbErr != err {
				t.Errorf("callback got %v, Wait got %v", cbErr, err)
			}
			return err
		},
	} {
		sends = 0
		if err := write(bad); !errors.Is(err, msg.ErrUnsupportedValue) {
			t.Errorf("%s of a %T: err = %v, want msg.ErrUnsupportedValue", name, bad, err)
		}
		if sends != 0 {
			t.Errorf("%s of a %T sent %d requests, want none", name, bad, sends)
		}
		if err := write(1.5); err != nil {
			t.Errorf("%s after the refused one: %v", name, err)
		}
	}
	if n := cl.InFlight(); n != 0 {
		t.Errorf("InFlight = %d after every write completed, want 0", n)
	}
}

// TestKeyspaceConcurrentDistinctKeys hammers the keyspace from 8 goroutines
// on disjoint key ranges — the parallelism claim the striping exists for,
// and a race-detector target for the shared-transport delivery path.
func TestKeyspaceConcurrentDistinctKeys(t *testing.T) {
	ks, stores := loopbackKeyspace(t, 5, 8, quorum.NewMajority(5), register.Settings{Monotone: true})
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

// TestKeyspaceAllocGate pins a sharded keyspace's steady-state per-operation
// allocations to a one-shard client's (NewKeyspace, the simulator's shape):
// the shard hop adds zero — same sessions, same queues, no routing-table
// entries.
func TestKeyspaceAllocGate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	sys := quorum.NewMajority(5)

	stores := make([]*replica.Store, 5)
	for i := range stores {
		stores[i] = replica.New(msg.NodeID(i), nil)
	}
	var pl *register.Keyspace
	plSend := func(server int, req any) {
		if reply, ok := stores[server].Apply(req); ok {
			register.DeliverReply(pl, server, reply)
		}
	}
	pl = register.NewKeyspace(
		register.NewEngine(1, sys, rng.Derive(3, "allocgate.pipeline")), plSend)

	ks, _ := loopbackKeyspace(t, 5, 8, sys, register.Settings{})

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
		t.Errorf("keyspace path allocates %.1f/op-pair, one shard %.1f — sharding added allocations",
			ksAllocs, plAllocs)
	}

	// Unboxed delivery: replies arrive through a bound ReplySink (the
	// transport.BindReplies path the TCP read loop uses) instead of boxed
	// through the Sink. De-boxing must not cost allocations over the boxed
	// path — that is its whole point.
	cEngines := make([]*register.Engine, 8)
	for i := range cEngines {
		cEngines[i] = register.NewEngine(1, sys,
			rng.Derive(7, fmt.Sprintf("allocgate.unboxed.%d", i)),
			register.WithOpStride(uint64(i), 8))
	}
	ksc := register.NewKeyspaceOver(cEngines, &typedLoopback{loopback: *newLoopback(5)})
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
		t.Errorf("unboxed reply path allocates %.1f/op-pair, boxed Sink %.1f — de-boxing added allocations",
			unboxedAllocs, ksAllocs)
	}
	t.Logf("allocs per write+read pair: one shard %.1f, keyspace %.1f, keyspace-unboxed %.1f",
		plAllocs, ksAllocs, unboxedAllocs)

	// One shard, the shape of every tcp.Dial client: a coalesced reply frame
	// goes straight to the shard and must complete its operations
	// without a single allocation — no demux scratch, pooled or not. Only the
	// flush is measured, so the count is taken by hand; like AllocsPerRun it
	// runs on one P and judges the mean per frame, so a stray allocation by
	// another goroutine cannot fail the gate but one per frame does.
	ft := &frameTransport{loopback: *newLoopback(1)}
	one := register.NewKeyspaceOver([]*register.Engine{
		register.NewEngine(1, quorum.NewAll(1), rng.Derive(7, "allocgate.oneshard")),
	}, ft)
	if _, demux := ft.rs.(*register.Keyspace); demux {
		t.Errorf("one-shard keyspace bound %T for frames, want its shard: nothing to demultiplex", ft.rs)
	}
	const frame, frames = 8, 200
	var frameAllocs uint64
	var ms runtime.MemStats
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for round := 0; round < 64+frames; round++ {
		for k := msg.RegisterID(0); k < frame; k++ {
			one.ReadAsyncFunc(k, nil)
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

// typedLoopback is a loopback with a ReplyBinder: the stores' typed calls
// answer, and each reply reaches the bound ReplySink as a one-element frame,
// as a lone reply frame does over tcp. The frames are a stack: a reply's
// delivery may send, and so deliver, again before it returns.
type typedLoopback struct {
	loopback
	rs    transport.ReplySink
	reads []msg.ReadReply
	acks  []msg.WriteAck
}

func (l *typedLoopback) BindReplies(rs transport.ReplySink) bool { l.rs = rs; return true }

func (l *typedLoopback) Send(server int, req any) error {
	switch m := req.(type) {
	case msg.ReadReq:
		if r, ok := l.stores[server].ApplyRead(m); ok {
			n := len(l.reads)
			l.reads = append(l.reads, r)
			l.rs.ReplyBatch(server, l.reads[n:], nil)
			l.reads = l.reads[:n]
		}
	case msg.WriteReq:
		if a, ok := l.stores[server].ApplyWrite(m); ok {
			n := len(l.acks)
			l.acks = append(l.acks, a)
			l.rs.ReplyBatch(server, nil, l.acks[n:])
			l.acks = l.acks[:n]
		}
	}
	return nil
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
		opts[i] = []register.PipelineOption{register.ApplyPipeline(register.Settings{Counters: &tc})}
	}
	clients := register.NewKeyspacesOver(ft, groups, opts)
	var ops []*register.PendingOp
	for _, c := range clients {
		for k := msg.RegisterID(0); k < 8; k++ {
			ops = append(ops, c.ReadAsyncFunc(k, nil))
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
// queue entry, no session, no in-flight slot, and without the monotone cache
// no client-side state at all — only the installed value server-side
// survives.
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

	ks, stores := loopbackKeyspace(t, 1, 16, quorum.NewAll(1), register.Settings{})
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
	// Budget: ~33 B server-side (a 25 B table slot at the occupancy the
	// store's growth rule allows; a nil value needs no more) and nothing
	// client-side: the engine's write counter is one per engine, not per key.
	// With no client map left the bound does not depend on the Go version's
	// map layout. 45 B catches any per-key client state coming back (a map
	// entry is ~35 B), a store that went back to a map of boxed values
	// (+60 B), and any regression that retains per-key queues, sessions, or
	// in-flight entries (each would add hundreds of bytes per key).
	if perKey > 45 {
		t.Errorf("idle key costs %.1f B, want <= 45 B", perKey)
	}
	if got := stores[0].Keys(); got != keys {
		t.Errorf("server materialized %d keys, want %d", got, keys)
	}
	runtime.KeepAlive(ks)
}
