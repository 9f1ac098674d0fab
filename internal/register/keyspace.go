package register

import (
	"fmt"
	"sync"

	"probquorum/internal/msg"
	"probquorum/internal/quorum"
	"probquorum/internal/transport"
)

// Keyspace is the register client every adapter binds: one client process
// multiplexing operations on any number of independent keys over a single
// transport. With one shard it is a single Pipeline; a blocking call is an
// asynchronous one waited on at once, which at depth one is the paper's
// model of one pending operation per process.
//
// A lone Pipeline already overlaps round-trips across registers, but every
// submission, reply, and completion serializes on its one mutex (and its one
// Engine) — with many cores driving many hot keys, that lock is the ceiling.
// A Keyspace stripes the key space across a power-of-two number of
// Pipelines, each wrapping its own Engine, so clients on different shards
// never share a lock, a session map, or a monotone cache.
//
// The shards share the transport, and the transport carries op-id-matched
// replies with no notion of shards — so every shard's engine is confined to
// its own op-id residue class (WithOpStride): shard i only ever issues ids
// ≡ i (mod shards), and Deliver routes a reply to its shard from the id's
// low bits alone, no shared routing table. Requests from all shards funnel
// into the same per-server transport queues, so frame coalescing happens
// across keys and shards, not per key. Several clients — one process's
// engines — share a transport the same way (NewKeyspacesOver): each holds a
// block of residues, and one root keyspace over all of them is the demux.
//
// Per-key guarantees are the Pipeline's, unchanged: operations on one key
// are FIFO per client ([R4]-preserving), operations on different keys
// proceed fully concurrently. Keys never written read as the zero
// msg.Tagged. Idle keys cost nothing in the pipelines (queue entries are
// recycled, session maps are per-operation); only state the algorithm
// actually needs survives per touched key — the writer's timestamp counter,
// and the monotone cache where enabled.
type Keyspace struct {
	shards []*Pipeline
	mask   msg.OpID

	// batchPool recycles ReplyBatch's per-frame demux scratch (buckets are
	// sized to this keyspace's shard count, so the pool is per-instance). It
	// is allocated apart from the Keyspace: the runtime keeps a used Pool
	// reachable for two GC cycles, and an embedded one would keep the whole
	// closed keyspace — pipelines, transport, connections — reachable with it.
	batchPool *sync.Pool
}

// NewKeyspace builds a keyspace over per-shard engines; engines[i] must
// have been constructed with WithOpStride(i, len(engines)) so reply routing
// by op-id residue works, and len(engines) must be a power of two. The
// shards are one client: their engines share its writer identity and quorum
// system but must not share rand streams or any other state (independent
// clients share a transport through NewKeyspacesOver, each keeping its own
// writer identity and shards). The pipeline options are applied
// to every shard; pointer-valued options (trace log, gauge, counters,
// observer) aggregate naturally across shards because the shards share the
// target. Prefer the transport adapters (tcp.DialKeyspace,
// cluster.NewKeyspace) unless you are wiring a custom runtime.
func NewKeyspace(engines []*Engine, send SendFunc, opts ...PipelineOption) *Keyspace {
	k := newKeyspace(len(engines))
	for i, e := range engines {
		k.shards[i] = newShard(e, i, len(engines), send, opts)
	}
	return k
}

func newKeyspace(n int) *Keyspace {
	if n == 0 || n&(n-1) != 0 {
		panic(fmt.Sprintf("register: keyspace shard count %d is not a power of two", n))
	}
	return &Keyspace{shards: make([]*Pipeline, n), mask: msg.OpID(n - 1), batchPool: new(sync.Pool)}
}

// newShard wraps the engine serving op-id residue r of stride.
func newShard(e *Engine, r, stride int, send SendFunc, opts []PipelineOption) *Pipeline {
	if e.opStride != msg.OpID(stride) || e.nextOp&msg.OpID(stride-1) != msg.OpID(r) {
		panic(fmt.Sprintf("register: keyspace shard %d engine not built with WithOpStride(%d, %d)", r, r, stride))
	}
	return NewPipeline(e, send, opts...)
}

// NewKeyspaceOver builds a Keyspace running over a Transport, binding its
// sink to Deliver once for all shards. As with NewPipelineOver, a
// transport-wide fatal error closes the keyspace, and a per-server error or
// failed Send marks the server suspected — in the one suspicion table every
// shard's picks consult — and tops up the operations of every shard that
// were waiting on it. It is NewKeyspacesOver with one client.
func NewKeyspaceOver(engines []*Engine, tr transport.Transport, opts ...PipelineOption) *Keyspace {
	return NewKeyspacesOver(tr, [][]*Engine{engines}, [][]PipelineOption{opts})[0]
}

// NewKeyspacesOver runs several independent register clients — the engines
// of one process — over one transport, and returns one Keyspace per client.
// groups[i] holds client i's shard engines and opts[i] the options its
// pipelines run with, so each client keeps its own writer identity, pick
// streams, monotone cache, timestamps, retry budget and instruments. Every
// client has the same power-of-two shard count s; with g the client count
// rounded up to a power of two, client i's shard j must be built with
// WithOpStride(i·s+j, g·s).
//
// The transport's traffic is demultiplexed once for all clients, by op-id
// residue (a residue no client holds drops what it receives), and the
// clients share one suspicion table: a server the transport reports lost is
// suspected once, the operations of every client that were waiting on it
// are topped up, and every client's picks avoid it. Closing a returned
// keyspace fails its own operations only; a transport-wide fatal error
// closes them all. Closing the transport stays the caller's.
func NewKeyspacesOver(tr transport.Transport, groups [][]*Engine, opts [][]PipelineOption) []*Keyspace {
	s, g := len(groups[0]), 1
	for g < len(groups) {
		g *= 2
	}
	root := newKeyspace(g * s)
	send := sendOver(tr, func(server int, err error) { root.memberLost(server, err) })
	h := transport.NewHealth(tr.N())
	clients := make([]*Keyspace, len(groups))
	for i, engines := range groups {
		if len(engines) != s {
			panic(fmt.Sprintf("register: client %d has %d shards, client 0 has %d", i, len(engines), s))
		}
		c := &Keyspace{shards: root.shards[i*s : (i+1)*s : (i+1)*s], mask: msg.OpID(s - 1), batchPool: new(sync.Pool)}
		for j, e := range engines {
			c.shards[j] = newShard(e, i*s+j, g*s, send, opts[i])
			// Each shard adopts views independently (whichever shard is
			// rejected first re-targets the shared transport; Update is
			// idempotent by epoch, so the rest are no-ops).
			c.shards[j].bind(tr, h)
		}
		clients[i] = c
	}
	if len(groups) < g {
		idle := NewPipeline(nil, nil)
		idle.Close(nil)
		for r := len(groups) * s; r < g*s; r++ {
			root.shards[r] = idle
		}
	}
	deliverTo(tr, root)
	// Concrete-typed delivery: batch replies walk straight into the issuing
	// shard without boxing (the Sink keeps carrying errors). With one shard
	// there is nothing to demultiplex, so frames go to it directly and never
	// touch ReplyBatch's pooled scratch.
	var rs transport.ReplySink = root
	if len(root.shards) == 1 {
		rs = root.shards[0]
	}
	transport.BindReplies(tr, rs)
	return clients
}

// memberLost hands a per-server loss to every shard: the shards share the
// transport, so each may have operations waiting on the lost server.
func (k *Keyspace) memberLost(server int, cause error) {
	for _, s := range k.shards {
		s.memberLost(server, cause)
	}
}

// Health returns the per-server suspicion snapshot of the transport the
// keyspace runs over (nil when it was built without one).
func (k *Keyspace) Health() []transport.ServerHealth { return k.shards[0].Health() }

// ShardFor returns the shard index serving key, by the same mixed hash the
// replica store stripes with (msg.Mix32 masked to the shard count).
func (k *Keyspace) ShardFor(key msg.RegisterID) int {
	return int(msg.Mix32(uint32(key))) & int(k.mask)
}

// Shards returns the number of client-side shards.
func (k *Keyspace) Shards() int { return len(k.shards) }

// Shard exposes shard i's pipeline (tests inspect per-shard retries and
// in-flight counts). Routing operations around ShardFor breaks the op-id
// residue discipline; use the keyspace methods.
func (k *Keyspace) Shard(i int) *Pipeline { return k.shards[i] }

// Read performs one pipelined read of key, blocking until it completes.
func (k *Keyspace) Read(key msg.RegisterID) (msg.Tagged, error) {
	return k.shards[k.ShardFor(key)].Read(key)
}

// Write performs one pipelined write of key, blocking until acknowledged.
func (k *Keyspace) Write(key msg.RegisterID, val msg.Value) error {
	return k.shards[k.ShardFor(key)].Write(key, val)
}

// ReadAtomic performs one pipelined ABD atomic read of key, blocking until
// it completes (one round trip when the quorum is unanimous).
func (k *Keyspace) ReadAtomic(key msg.RegisterID) (msg.Tagged, error) {
	return k.shards[k.ShardFor(key)].ReadAtomic(key)
}

// ReadAsync submits a read of key and returns immediately.
func (k *Keyspace) ReadAsync(key msg.RegisterID) *PendingOp {
	return k.shards[k.ShardFor(key)].ReadAsync(key)
}

// WriteAsync submits a write of key and returns immediately.
func (k *Keyspace) WriteAsync(key msg.RegisterID, val msg.Value) *PendingOp {
	return k.shards[k.ShardFor(key)].WriteAsync(key, val)
}

// ReadAtomicAsync submits an ABD atomic read of key and returns immediately.
func (k *Keyspace) ReadAtomicAsync(key msg.RegisterID) *PendingOp {
	return k.shards[k.ShardFor(key)].ReadAtomicAsync(key)
}

// ReadAsyncFunc submits a read of key whose completion invokes fn.
func (k *Keyspace) ReadAsyncFunc(key msg.RegisterID, fn func(msg.Tagged, error)) *PendingOp {
	return k.shards[k.ShardFor(key)].ReadAsyncFunc(key, fn)
}

// WriteAsyncFunc submits a write of key whose completion invokes fn.
func (k *Keyspace) WriteAsyncFunc(key msg.RegisterID, val msg.Value, fn func(msg.Tagged, error)) *PendingOp {
	return k.shards[k.ShardFor(key)].WriteAsyncFunc(key, val, fn)
}

// ReadAtomicAsyncFunc submits an ABD atomic read of key whose completion
// invokes fn.
func (k *Keyspace) ReadAtomicAsyncFunc(key msg.RegisterID, fn func(msg.Tagged, error)) *PendingOp {
	return k.shards[k.ShardFor(key)].ReadAtomicAsyncFunc(key, fn)
}

// WriteMultiAsyncFunc submits a multi-writer write of key (see
// Pipeline.WriteMultiAsyncFunc) whose completion invokes fn.
func (k *Keyspace) WriteMultiAsyncFunc(key msg.RegisterID, val msg.Value, fn func(msg.Tagged, error)) *PendingOp {
	return k.shards[k.ShardFor(key)].WriteMultiAsyncFunc(key, val, fn)
}

// WriteMulti performs one multi-writer write of key — a read round
// discovers the current maximum timestamp, and the write round installs val
// one past it, tie-broken by writer id — and returns the timestamp written.
func (k *Keyspace) WriteMulti(key msg.RegisterID, val msg.Value) (msg.Timestamp, error) {
	tag, err := k.WriteMultiAsyncFunc(key, val, nil).Wait()
	return tag.TS, err
}

// Deliver feeds one server's message into the keyspace, routing it to the
// issuing shard by the op id's residue class. Non-protocol payloads land on
// shard 0, which ignores them like any pipeline does. Safe for concurrent
// use; replies for different shards don't contend.
func (k *Keyspace) Deliver(server int, payload any) {
	switch m := payload.(type) {
	case msg.ReadReply:
		k.ReadReply(server, m)
	case msg.WriteAck:
		k.WriteAck(server, m)
	case msg.StaleEpoch:
		k.StaleEpoch(server, m)
	default:
		k.shards[0].Deliver(server, payload)
	}
}

// ReadReply routes one concrete read reply to its issuing shard — a leg of
// the boxed Deliver.
func (k *Keyspace) ReadReply(server int, m msg.ReadReply) {
	k.shards[m.Op&k.mask].ReadReply(server, m)
}

// WriteAck routes one concrete write acknowledgement to its issuing shard.
func (k *Keyspace) WriteAck(server int, m msg.WriteAck) {
	k.shards[m.Op&k.mask].WriteAck(server, m)
}

// StaleEpoch routes one concrete stale-epoch reject to its issuing shard;
// the shard adopts the carried view and re-targets the shared transport.
func (k *Keyspace) StaleEpoch(server int, m msg.StaleEpoch) {
	k.shards[m.Op&k.mask].StaleEpoch(server, m)
}

// ksBatch is the per-frame demux scratch for ReplyBatch: one reply bucket
// pair per shard, plus the list of shards the frame actually touched so
// reset cost tracks the frame, not the shard count.
type ksBatch struct {
	reads   [][]msg.ReadReply
	acks    [][]msg.WriteAck
	touched []int
}

// ReplyBatch demultiplexes one server frame's worth of replies by op-id
// residue and hands each touched shard its share in a single call — the
// unboxed counterpart of Deliver (transport.ReplySink). Requests from all
// shards funnel into the same per-server queues, so a coalesced reply frame
// interleaves shards freely; delivering it element by element would take
// each shard's pipeline lock once per reply. Bucketing first keeps the
// amortization the server's coalescing bought: each shard pays one lock
// round per frame, and shards still never contend with each other.
func (k *Keyspace) ReplyBatch(server int, reads []msg.ReadReply, acks []msg.WriteAck) {
	if len(reads)+len(acks) == 1 {
		// A lone element needs no demux scratch.
		for _, m := range reads {
			k.ReadReply(server, m)
		}
		for _, m := range acks {
			k.WriteAck(server, m)
		}
		return
	}
	b, _ := k.batchPool.Get().(*ksBatch)
	if b == nil {
		b = &ksBatch{
			reads: make([][]msg.ReadReply, len(k.shards)),
			acks:  make([][]msg.WriteAck, len(k.shards)),
		}
	}
	for _, m := range reads {
		s := int(m.Op & k.mask)
		if len(b.reads[s])+len(b.acks[s]) == 0 {
			b.touched = append(b.touched, s)
		}
		b.reads[s] = append(b.reads[s], m)
	}
	for _, m := range acks {
		s := int(m.Op & k.mask)
		if len(b.reads[s])+len(b.acks[s]) == 0 {
			b.touched = append(b.touched, s)
		}
		b.acks[s] = append(b.acks[s], m)
	}
	for _, s := range b.touched {
		k.shards[s].ReplyBatch(server, b.reads[s], b.acks[s])
		clear(b.reads[s])
		clear(b.acks[s])
		b.reads[s] = b.reads[s][:0]
		b.acks[s] = b.acks[s][:0]
	}
	b.touched = b.touched[:0]
	k.batchPool.Put(b)
}

// AdoptView installs a newer membership view on every shard (and re-targets
// the shared transport once, through the first shard that adopts it),
// reporting whether any shard adopted it.
func (k *Keyspace) AdoptView(v quorum.View) bool {
	any := false
	for _, s := range k.shards {
		if s.AdoptView(v) {
			any = true
		}
	}
	return any
}

// Epoch returns the highest epoch adopted by any shard (0 in static mode).
// Safe to call while operations are in flight.
func (k *Keyspace) Epoch() quorum.Epoch {
	var e quorum.Epoch
	for _, s := range k.shards {
		if se := s.Epoch(); se > e {
			e = se
		}
	}
	return e
}

// Retries returns the total number of re-issued operations across shards.
func (k *Keyspace) Retries() int64 {
	var n int64
	for _, s := range k.shards {
		n += s.Retries()
	}
	return n
}

// InFlight returns the total number of submitted-but-incomplete operations
// across shards.
func (k *Keyspace) InFlight() int {
	n := 0
	for _, s := range k.shards {
		n += s.InFlight()
	}
	return n
}

// CacheHits returns the total monotone-cache hits across shard engines.
func (k *Keyspace) CacheHits() int64 {
	var n int64
	for _, s := range k.shards {
		n += s.Engine().CacheHits()
	}
	return n
}

// FastReads returns the total one-round-trip atomic reads across shard
// engines.
func (k *Keyspace) FastReads() int64 {
	var n int64
	for _, s := range k.shards {
		n += s.Engine().FastReads()
	}
	return n
}

// Close fails every pending operation on every shard with err (defaulting
// to ErrPipelineClosed) and makes further submissions fail immediately.
func (k *Keyspace) Close(err error) {
	for _, s := range k.shards {
		s.Close(err)
	}
}
