// Package replica implements the replica server of the probabilistic quorum
// algorithm (paper, Section 4): each of the n servers keeps a local,
// timestamped copy of every shared register and answers two requests —
// a read request with its current tagged value, and a write request by
// installing the new value if its timestamp is newer.
//
// The server is a pure state machine (Apply maps a request to a reply), so
// the discrete-event simulator, the goroutine runtime, and the TCP transport
// all drive the same code.
//
// The register state is striped: keys are partitioned across storeShards
// lock-protected shards by a mixed hash of the register id, so concurrent
// requests for different keys proceed in parallel instead of serializing on
// one store-wide mutex. Requests for the same key still serialize on that
// key's shard, which is all the install-if-newer rule needs. Each shard keeps
// its registers in a pointer-free open-addressed table (table.go).
package replica

import (
	"sync"
	"sync/atomic"
	"unsafe"

	"probquorum/internal/metrics"
	"probquorum/internal/msg"
)

// storeShards is the number of lock stripes per store. Power of two so the
// shard index is a mask of the mixed hash; 64 stripes keep the collision
// probability low even with every connection of a busy server hammering
// distinct keys, while costing only a few KiB per replica.
const storeShards = 64

// shardFor maps a register id to its shard index via the shared striping
// hash (msg.Mix32): register ids are often small and sequential (vector
// components 0..m-1), and without mixing they would all land in the first
// few shards.
func shardFor(reg msg.RegisterID) uint32 {
	return msg.Mix32(uint32(reg)) & (storeShards - 1)
}

// cacheLine is the size the stripes are padded to, so neighbouring stripes'
// mutexes never share a line under cross-core contention.
const cacheLine = 64

// shardState is what one lock stripe holds: a mutex and the table of the
// register entries whose keys hash into it. Entries are created lazily on
// first write (or copied from the initial contents); a key with no entry
// reads as the zero Tagged value, the notional initializing write.
type shardState struct {
	mu sync.Mutex
	t  table
}

// storeShard pads shardState to a whole number of cache lines; the pad is
// computed from the real fields, so it follows them when they change
// (TestStoreLayout pins the result).
type storeShard struct {
	shardState
	_ [(cacheLine - unsafe.Sizeof(shardState{})%cacheLine) % cacheLine]byte
}

// Store is one replica server's state: a timestamped value per register,
// striped across storeShards lock partitions.
//
// Store is safe for concurrent use; the goroutine runtime and the TCP server
// deliver requests from many clients at once, and requests touching
// different keys proceed concurrently.
type Store struct {
	// shards comes first so the array starts at offset 0 of the allocation:
	// with every stripe a multiple of cacheLine, each then owns its lines.
	shards [storeShards]storeShard

	id msg.NodeID

	// crashed and the request counters are atomics, not shard state: Crash
	// must silence every shard at once, and the counters are incremented on
	// every request regardless of which shard it lands in — under the old
	// single mutex they rode along for free, under striping they must not
	// race between shards.
	crashed atomic.Bool
	reads   atomic.Int64
	writes  atomic.Int64

	// keys, slots and bytes describe the tables across all stripes (see
	// RegisterStoreMetrics). They move when a key is added or a table grows,
	// never on a read or an overwrite.
	keys  metrics.Gauge
	slots metrics.Gauge
	bytes metrics.Gauge

	// vs is the membership state (installed view, join/drain/stale
	// counters); see view.go. Static-mode servers never touch it beyond
	// one atomic load per epoch-stamped request.
	vs viewState
}

// New returns a replica server with the given identity and initial register
// contents. The initial map is copied, each key into its shard.
func New(id msg.NodeID, initial map[msg.RegisterID]msg.Value) *Store {
	s := &Store{id: id}
	for r, v := range initial {
		s.put(r, msg.Tagged{Val: v}) // zero timestamp
	}
	return s
}

// put installs tag under reg if reg is new to the store or tag is newer than
// what it holds — the one way a value enters a table.
func (s *Store) put(reg msg.RegisterID, tag msg.Tagged) {
	sh := &s.shards[shardFor(reg)]
	sh.mu.Lock()
	added, grown := sh.t.put(reg, tag)
	sh.mu.Unlock()
	if added {
		s.keys.Inc()
	}
	if grown > 0 {
		s.slots.Add(int64(grown))
		s.bytes.Add(int64(grown) * slotBytes)
	}
}

// install is put plus the side effect of the reserved view register: a write
// that lands there moves membership — the self-hosting reconfiguration path
// (view.go).
func (s *Store) install(reg msg.RegisterID, tag msg.Tagged) {
	s.put(reg, tag)
	if reg == msg.ViewKey {
		s.maybeInstallView(tag)
	}
}

// load copies reg's state out from under its stripe lock (see table.get);
// every read of the store, whatever it renders the state as, goes through it.
func (s *Store) load(reg msg.RegisterID) (ts msg.Timestamp, ctrl byte, bits uint64, side msg.Value) {
	sh := &s.shards[shardFor(reg)]
	sh.mu.Lock()
	ts, ctrl, bits, side = sh.t.get(reg)
	sh.mu.Unlock()
	return
}

// RegisterStoreMetrics attaches the store's table gauges to r under prefix:
// "<prefix>.keys" (registers materialized), "<prefix>.table_slots" (slots
// allocated across all stripes, so keys/table_slots is the occupancy) and
// "<prefix>.table_bytes" (what those slots cost the heap, so
// table_bytes/keys is the bytes per key; values in the side lists are not
// counted). The registered gauges are the live ones inserts and table growth
// maintain, so scrapes cost the request path nothing.
func (s *Store) RegisterStoreMetrics(prefix string, r metrics.Registrar) {
	s.keys.Register(prefix+".keys", r)
	s.slots.Register(prefix+".table_slots", r)
	s.bytes.Register(prefix+".table_bytes", r)
}

// ID returns the server's node identifier.
func (s *Store) ID() msg.NodeID { return s.id }

// Apply processes one protocol request and returns the reply to send back,
// or ok=false when the request is not a replica request or the server is
// crashed (a crashed server is silent, modeling a crash failure rather than
// an explicit error). Only the addressed key's shard is locked, so requests
// for different keys run in parallel.
func (s *Store) Apply(req any) (reply any, ok bool) {
	switch m := req.(type) {
	case msg.ReadReq:
		if s.crashed.Load() {
			return nil, false
		}
		if rej, stale := s.StaleFor(m.Reg, m.Op, m.Epoch); stale {
			return rej, true
		}
		r, ok := s.ApplyRead(m)
		if !ok {
			return nil, false
		}
		return r, true
	case msg.WriteReq:
		if s.crashed.Load() {
			return nil, false
		}
		if rej, stale := s.StaleFor(m.Reg, m.Op, m.Epoch); stale {
			return rej, true
		}
		a, ok := s.ApplyWrite(m)
		if !ok {
			return nil, false
		}
		return a, true
	case msg.SnapReq:
		r, ok := s.ApplySnap(m)
		if !ok {
			return nil, false
		}
		return r, true
	default:
		return nil, false
	}
}

// ApplyRead is the concrete-typed read path of the in-memory transports, the
// simulator and the probes. It boxes a stored scalar back into the reply's
// msg.Tagged; the TCP server calls AppendRead instead, which does not.
// ok=false means the server is crashed (silent).
func (s *Store) ApplyRead(m msg.ReadReq) (msg.ReadReply, bool) {
	if s.crashed.Load() {
		return msg.ReadReply{}, false
	}
	s.reads.Add(1)
	return msg.ReadReply{Reg: m.Reg, Op: m.Op, Tag: tagged(s.load(m.Reg)), Epoch: m.Epoch}, true
}

// AppendRead is ApplyRead rendered as wire bytes: it appends the reply for m
// to the batch frame w is assembling, a stored scalar straight from its slot
// with nothing boxed. ok=false means the server is crashed; err is w's
// refusal of a side-list value outside the codec's union, in which case
// nothing was appended.
func (s *Store) AppendRead(w *msg.BatchWriter, m msg.ReadReq) (ok bool, err error) {
	if s.crashed.Load() {
		return false, nil
	}
	s.reads.Add(1)
	ts, ctrl, bits, side := s.load(m.Reg)
	if ctrl == ctrlSide {
		return true, w.AddReadReply(msg.ReadReply{Reg: m.Reg, Op: m.Op, Tag: msg.Tagged{TS: ts, Val: side}, Epoch: m.Epoch})
	}
	w.AddScalarReadReply(m.Reg, m.Op, ts, msg.ScalarKind(ctrl-1), bits, m.Epoch)
	return true, nil
}

// ApplyWrite is the concrete-typed write path; see ApplyRead.
func (s *Store) ApplyWrite(m msg.WriteReq) (msg.WriteAck, bool) {
	if s.crashed.Load() {
		return msg.WriteAck{}, false
	}
	s.writes.Add(1)
	s.install(m.Reg, m.Tag)
	return msg.WriteAck{Reg: m.Reg, Op: m.Op, Epoch: m.Epoch}, true
}

// Crash silences the server: subsequent requests get no reply until Recover
// is called. State is retained (crash-recovery with stable storage).
func (s *Store) Crash() { s.crashed.Store(true) }

// Recover brings a crashed server back with its retained state.
func (s *Store) Recover() { s.crashed.Store(false) }

// Crashed reports whether the server is currently crashed.
func (s *Store) Crashed() bool { return s.crashed.Load() }

// Get returns the server's current tagged value for reg; tests and the
// Monte-Carlo experiments inspect replica state directly with it. A key
// never written reads as the zero Tagged value.
func (s *Store) Get(reg msg.RegisterID) msg.Tagged {
	return tagged(s.load(reg))
}

// Keys returns the number of register entries currently materialized across
// all shards (initial contents plus every key written so far). It reads the
// gauge put maintains, which counts a key before the write that added it is
// acknowledged.
func (s *Store) Keys() int { return int(s.keys.Value()) }

// Stats returns the number of read and write requests the server has
// processed (excluding those dropped while crashed).
func (s *Store) Stats() (reads, writes int64) {
	return s.reads.Load(), s.writes.Load()
}
