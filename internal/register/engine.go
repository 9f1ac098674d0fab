package register

import (
	"fmt"
	"math/rand/v2"

	"probquorum/internal/metrics"
	"probquorum/internal/msg"
	"probquorum/internal/quorum"
	"probquorum/internal/transport"
)

// Engine holds one client process's register-subsystem state: the quorum
// selection strategy, the operation and write counters, and — for the
// monotone variant — the freshest tagged value returned so far for each
// register (paper, Section 6.2).
//
// An Engine belongs to a single client process and is not safe for
// concurrent use; the paper's model allows at most one pending operation per
// process, and the drivers respect that. The discipline is enforced: every
// state-mutating method carries a cheap atomic assertion (see opGuard) that
// panics on concurrent entry instead of corrupting state silently. Clients
// that want many operations in flight run the Engine in a Keyspace, whose
// shard serializes its Engine calls while overlapping the network
// round-trips.
type Engine struct {
	guard opGuard

	writer   int32
	sys      quorum.System
	writeSys quorum.System // defaults to sys; see Settings.WriteSystem
	rnd      *rand.Rand
	monotone bool

	// epoch stamps every request this engine issues; 0 is static mode.
	// view is the adopted membership view (zero value in static mode);
	// AdoptView advances both and swaps the quorum systems in one step.
	epoch quorum.Epoch
	view  quorum.View

	nextOp     msg.OpID
	opStride   msg.OpID
	wseq       uint64 // the largest Seq stamped under this writer id; see stamp
	cache      map[msg.RegisterID]msg.Tagged
	readRepair bool
	repairs    int64
	maskB      int // b-masking parameter; -1 disables

	// fastReads counts atomic reads that took the one-round-trip path.
	fastReads int64

	tally *metrics.AccessTally

	// health is the suspicion table of the transport this engine's client is
	// bound to (nil without one), shared with every other engine over that
	// transport; mask is the scratch its suspects are copied into for a pick.
	// See faultAware.
	health *transport.Health
	mask   quorum.Mask

	// cacheHits counts monotone reads answered from the cache because the
	// queried quorum only returned older timestamps.
	cacheHits int64

	// rfree/wfree hold finished sessions whose storage (quorum and tag
	// slices) a new attempt recycles, the steady-state mirror of the in-place
	// reuse a retried attempt makes — a pipelined client stops allocating
	// per operation. Sessions enter only through release, whose caller
	// vouches that no further reply can touch them.
	rfree []*readSession
	wfree []*writeSession
}

// sessionFreeMax bounds the recycled-session free lists; sessions beyond it
// are dropped for the garbage collector.
const sessionFreeMax = 512

// Option configures an Engine.
type Option func(*Engine)

// WithOpStride confines every operation id this engine issues to the residue
// class offset (mod stride): ids start at offset and advance by stride. A
// Keyspace runs one engine per client-side shard over one shared transport,
// and with shard i's engine on WithOpStride(i, shards) an incoming reply can
// be routed back to its shard from the op id's low bits alone — no shared
// routing table, no cross-shard lock. stride must be a power of two and
// offset < stride; the default is the full id space (offset 0, stride 1).
func WithOpStride(offset, stride uint64) Option {
	if stride == 0 || stride&(stride-1) != 0 {
		panic(fmt.Sprintf("register: op stride %d is not a power of two", stride))
	}
	if offset >= stride {
		panic(fmt.Sprintf("register: op offset %d not below stride %d", offset, stride))
	}
	return func(e *Engine) {
		e.nextOp = msg.OpID(offset)
		e.opStride = msg.OpID(stride)
	}
}

// NewEngine returns a plain register engine — the random register, in static
// mode — for the given writer identity, quorum system, and randomness
// stream. Settings.Engine builds the other register classes.
func NewEngine(writer int32, sys quorum.System, rnd *rand.Rand, opts ...Option) *Engine {
	e := &Engine{
		writer:   writer,
		sys:      sys,
		rnd:      rnd,
		cache:    make(map[msg.RegisterID]msg.Tagged),
		maskB:    -1,
		opStride: 1,
	}
	for _, o := range opts {
		o(e)
	}
	if e.writeSys == nil {
		e.writeSys = e.sys
	}
	return e
}

// System returns the engine's quorum system.
func (e *Engine) System() quorum.System { return e.sys }

// Epoch returns the membership epoch the engine stamps requests with
// (0 in static mode).
func (e *Engine) Epoch() quorum.Epoch { return e.epoch }

// View returns the adopted membership view; ok=false in static mode. The
// result is a clone (quorum.View.Clone's boundary contract): a caller
// mutating it cannot corrupt the engine's adopted view.
func (e *Engine) View() (quorum.View, bool) {
	return e.view.Clone(), e.epoch != 0
}

// AdoptView switches the engine to a newer membership view: the quorum
// systems are rebuilt from it and every subsequent request (including
// re-picked retries of in-flight operations) is stamped with its epoch.
// Views no newer than the current epoch are ignored (idempotent under the
// duplicate StaleEpoch replies a fan-out can collect). The caller is
// responsible for re-targeting the transport (transport.Update) before the
// next fan-out when endpoints moved.
func (e *Engine) AdoptView(v quorum.View) bool {
	e.guard.enter()
	defer e.guard.leave()
	if v.Epoch <= e.epoch || v.Validate() != nil {
		return false
	}
	e.view = v.Clone()
	e.epoch = v.Epoch
	e.sys = e.view.System()
	e.writeSys = e.sys
	e.health.Reset(v.Epoch, v.N())
	return true
}

// CacheHits returns how many reads were answered from the monotone cache.
func (e *Engine) CacheHits() int64 { return e.cacheHits }

// Repairs returns how many repair messages read repair has issued.
func (e *Engine) Repairs() int64 { return e.repairs }

// FastReads returns how many atomic reads completed on the one-round-trip
// fast path, i.e. without a write-back phase.
func (e *Engine) FastReads() int64 { return e.fastReads }

// repairTargets returns the write-back requests a completed read should
// fan out (empty unless Settings.ReadRepair is set): one WriteReq carrying the
// read's result to each quorum member that returned an older timestamp.
// Replicas ignore stale repairs by timestamp, so repairs are idempotent
// and need no acknowledgment.
func (e *Engine) repairTargets(s *readSession, result msg.Tagged) (servers []int, req msg.WriteReq) {
	e.guard.enter()
	defer e.guard.leave()
	if !e.readRepair || result.TS.IsZero() {
		return nil, msg.WriteReq{}
	}
	servers = s.StaleMembers(result)
	if len(servers) == 0 {
		return nil, msg.WriteReq{}
	}
	e.nextOp += e.opStride
	e.repairs += int64(len(servers))
	return servers, msg.WriteReq{Reg: s.Reg, Op: e.nextOp, Tag: result}
}

// faultAware reports whether the engine picks around suspected servers and
// tops attempts up (topUp) instead of restarting them: it has a suspicion
// table, any Size() distinct servers form a quorum of both its systems
// (quorum.KSubsets), and it is not b-masking — a masked read needs b+1
// matching replies out of one picked quorum, which a substituted member would
// not have been drawn for. Everything else keeps the restart-and-re-pick path.
func (e *Engine) faultAware() bool {
	return e.health != nil && e.maskB < 0 && quorum.IsKSubsets(e.sys) && quorum.IsKSubsets(e.writeSys)
}

// pick draws a quorum of sys into dst — a recycled or abandoned session's
// quorum slice, or nil for a fresh one — and accounts for it. Every system
// draws the same stream into dst as into a fresh slice, so a seeded engine's
// quorums do not depend on its session pool. While the suspicion table holds
// a suspect (only clients of fault-aware engines ever cause one), the quorum
// is drawn from the servers it does not suspect.
func (e *Engine) pick(sys quorum.System, dst []int) []int {
	var q []int
	if e.health.Any() {
		e.mask = e.health.MaskInto(e.mask)
		q = quorum.PickAvoiding(sys, dst, e.rnd, e.mask)
	} else {
		q = quorum.PickInto(sys, dst, e.rnd)
	}
	if e.tally != nil {
		e.tally.Touch(q)
	}
	return q
}

// beginRead opens an attempt at reading reg under a fresh operation id on a
// freshly picked quorum. s is the attempt it abandons — quorum members
// crashed, timed out, or outvoted the honest ones — or nil for a new read.
// This is the paper's availability mechanism (Section 4): a probabilistic
// quorum client never depends on any particular quorum, so a client facing
// unavailable servers simply draws another, and the fresh operation id makes
// replies addressed to the abandoned attempt fall through the session's
// filter. An abandoned session's storage is dead the moment its op id is
// retired, so the attempt reuses it in place; a new read recycles a released
// session when one is free. Either way a client riding out an outage, or
// running pipelined, stops allocating per attempt.
func (e *Engine) beginRead(reg msg.RegisterID, s *readSession) *readSession {
	e.guard.enter()
	defer e.guard.leave()
	e.nextOp += e.opStride
	if s == nil {
		s = popFree(&e.rfree)
	}
	q := e.pick(e.sys, s.Quorum)
	*s = readSession{
		Reg:       reg,
		Op:        e.nextOp,
		fanout:    fanout{Quorum: q, Epoch: e.epoch},
		tags:      sizeTags(s.tags, len(q)),
		unanimous: true,
	}
	return s
}

// popFree pops a released session off free, or allocates one when the list
// is empty.
func popFree[S any](free *[]*S) *S {
	n := len(*free)
	if n == 0 {
		return new(S)
	}
	s := (*free)[n-1]
	(*free)[n-1] = nil
	*free = (*free)[:n-1]
	return s
}

// sizeTags returns a zeroed tag buffer of length n, reusing buf's storage
// when it is big enough. The whole capacity is cleared, not just the first
// n entries: tag values are interfaces, and a recycled session must not
// retain reply values from a larger earlier quorum. It also enforces the
// reply bitmask's quorum-size cap (see fanout.replied) at session
// construction, where an oversized pick fails loudly instead of silently
// dropping replies.
func sizeTags(buf []msg.Tagged, n int) []msg.Tagged {
	if n > 64 {
		panic("register: quorum exceeds the 64-member session cap")
	}
	if cap(buf) < n {
		return make([]msg.Tagged, n)
	}
	buf = buf[:cap(buf)]
	clear(buf)
	return buf[:n]
}

// release returns a finished operation's sessions (either may be nil) to the
// engine for beginRead and beginWrite to recycle. The caller vouches that
// their operation ids have left every reply route — nothing may feed them a
// reply (or read Best) afterwards. Sessions that are never released are
// simply collected.
func (e *Engine) release(rs *readSession, ws *writeSession) {
	e.guard.enter()
	defer e.guard.leave()
	if rs != nil && len(e.rfree) < sessionFreeMax {
		e.rfree = append(e.rfree, rs)
	}
	if ws != nil && len(e.wfree) < sessionFreeMax {
		e.wfree = append(e.wfree, ws)
	}
}

// topUp replaces the member at quorum position i of f — one known lost and
// still owed its reply — by a server drawn uniformly from those neither in
// the attempt nor suspected, and returns it; the caller re-sends the
// attempt's request to it under the same operation id. Every reply already
// collected stays, and the lost member's own reply, should it still come,
// falls outside the quorum like any stranger's.
//
// It is sound because the engine is fault-aware: the quorum after the swap
// is Size() distinct servers, hence a quorum; for a majority that keeps
// strict intersection (and with it regularity, ABD atomicity and the
// unanimous fast read) intact, and for k of n the quorum stays a uniform
// k-subset of the servers the client believes live — the paper's Section 4
// availability argument. ok is false, and nothing changes, when the engine is
// not fault-aware, f was picked under an older view (its indices mean
// something else now), position i has already answered, or no candidate
// remains; the caller then falls back to its deadline and a fresh quorum.
func (e *Engine) topUp(f *fanout, i int) (int, bool) {
	e.guard.enter()
	defer e.guard.leave()
	if !e.faultAware() || f.Epoch != e.epoch || i < 0 || i >= len(f.Quorum) || !f.Pending(i) {
		return 0, false
	}
	n := e.sys.N() // the read and write systems cover the same servers
	candidate := func(srv int) bool { return pos(f.Quorum, srv) < 0 && !e.health.Suspected(srv) }
	free := 0
	for srv := 0; srv < n; srv++ {
		if candidate(srv) {
			free++
		}
	}
	if free == 0 {
		return 0, false
	}
	srv := 0
	for skip := e.rnd.IntN(free); ; srv++ {
		if candidate(srv) {
			if skip == 0 {
				break
			}
			skip--
		}
	}
	f.Replace(i, srv)
	return srv, true
}

// finishRead applies the monotone filter to a completed read session and
// returns the value the register returns to the application. For a
// non-monotone engine it is simply the session's maximum-timestamp value.
func (e *Engine) finishRead(s *readSession) msg.Tagged {
	e.guard.enter()
	defer e.guard.leave()
	return e.settle(s.Reg, s.Best())
}

// tryFinishReadFast decides whether a completed atomic-read read phase may
// skip its write-back (Mostéfaoui–Raynal): if every quorum reply carried the
// same timestamp, each member of the quorum already holds the result, and —
// replicas only ever advancing their timestamps — so does one member of any
// quorum a later operation intersects it in. The write-back would install
// nothing anywhere, so the read is already atomic after one round trip.
//
// For a monotone engine there is one more gate: when the cache holds a
// fresher value than the unanimous quorum, the read returns the cached value
// — a value this quorum does NOT hold — so the spreading write-back must
// still run. A b-masking engine never takes the fast path at all: a masked
// read accepts a tag only with b+1 supporting replies, so it needs the
// write-back's propagation (tag support on enough correct replicas), not
// merely quorum intersection — and a faulty replica matching the unanimous
// tag it does not actually store would count toward unanimity here.
//
// On success it returns the read's result (through the same monotone filter
// as finishRead) and true; on any disagreement, cache override, or masking,
// it returns false and the caller proceeds with the ordinary two-phase
// transition.
func (e *Engine) tryFinishReadFast(s *readSession) (msg.Tagged, bool) {
	e.guard.enter()
	defer e.guard.leave()
	if e.maskB >= 0 || !s.Unanimous() {
		return msg.Tagged{}, false
	}
	if e.monotone {
		if cached, ok := e.cache[s.Reg]; ok && s.Best().TS.Less(cached.TS) {
			return msg.Tagged{}, false
		}
	}
	e.fastReads++
	return e.settle(s.Reg, s.Best()), true
}

// settle passes a read's result for reg through the monotone filter: a
// monotone engine returns its cached value when that is fresher, and caches
// the result otherwise.
func (e *Engine) settle(reg msg.RegisterID, best msg.Tagged) msg.Tagged {
	if !e.monotone {
		return best
	}
	if cached, ok := e.cache[reg]; ok && best.TS.Less(cached.TS) {
		e.cacheHits++
		return cached
	}
	e.cache[reg] = best
	return best
}

// observeOwnWrite folds a value this client itself wrote into the monotone
// cache, so a writer never reads a value older than its own latest write.
// The paper's single-writer model has the writer of a register also reading
// it in Alg. 1; without this the cache would be one write behind.
func (e *Engine) observeOwnWrite(reg msg.RegisterID, tag msg.Tagged) {
	if !e.monotone {
		return
	}
	if cached, ok := e.cache[reg]; !ok || cached.TS.Less(tag.TS) {
		e.cache[reg] = tag
	}
}

// stamp returns the tag of a new single-writer write of val: the engine's
// next write count under its writer id. Timestamps need only be unique and
// increasing per (register, writer), so one counter serves every register
// and Seq counts all the engine's writes.
func (e *Engine) stamp(val msg.Value) msg.Tagged {
	e.guard.enter()
	defer e.guard.leave()
	e.wseq++
	return msg.Tagged{TS: msg.Timestamp{Seq: e.wseq, Writer: e.writer}, Val: val}
}

// multiWriterTS returns the timestamp a multi-writer write carries after
// observing maxSeen as the largest timestamp in its read round: one past it
// and past this engine's own writes, tie-broken by its writer id.
func (e *Engine) multiWriterTS(maxSeen msg.Timestamp) msg.Timestamp {
	return msg.Timestamp{Seq: max(maxSeen.Seq, e.wseq) + 1, Writer: e.writer}
}

// beginWrite opens an attempt at writing tag to reg — a stamped
// single-writer write, a multi-writer write, or an atomic read's write-back —
// under a fresh operation id on a freshly picked quorum. s is the attempt it
// abandons, or nil, as in beginRead. A retried write keeps its tag: it is
// the same write, and replicas deduplicate by timestamp, so members reached
// by both attempts converge on one installation. A tag of this writer raises
// the write counter, so a later stamp goes past it.
func (e *Engine) beginWrite(reg msg.RegisterID, tag msg.Tagged, s *writeSession) *writeSession {
	e.guard.enter()
	defer e.guard.leave()
	e.nextOp += e.opStride
	if tag.TS.Writer == e.writer {
		e.wseq = max(e.wseq, tag.TS.Seq)
	}
	e.observeOwnWrite(reg, tag)
	if s == nil {
		s = popFree(&e.wfree)
	}
	q := e.pick(e.writeSys, s.Quorum)
	if len(q) > 64 {
		// The acked bitmask's quorum-size cap (see fanout.replied): the
		// write path has no tag buffer to enforce it as a side effect.
		panic("register: quorum exceeds the 64-member session cap")
	}
	*s = writeSession{Reg: reg, Op: e.nextOp, Tag: tag, fanout: fanout{Quorum: q, Epoch: e.epoch}}
	return s
}
