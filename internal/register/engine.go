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
// selection strategy, the operation and write-timestamp counters, and — for
// the monotone variant — the freshest tagged value returned so far for each
// register (paper, Section 6.2).
//
// An Engine belongs to a single client process and is not safe for
// concurrent use; the paper's model allows at most one pending operation per
// process, and the drivers respect that. The discipline is enforced: every
// state-mutating method carries a cheap atomic assertion (see opGuard) that
// panics on concurrent entry instead of corrupting state silently. Clients
// that want many operations in flight wrap the Engine in a Pipeline, which
// serializes its Engine calls while overlapping the network round-trips.
type Engine struct {
	guard opGuard

	writer   int32
	sys      quorum.System
	writeSys quorum.System // defaults to sys; see WithWriteSystem
	rnd      *rand.Rand
	monotone bool

	// epoch stamps every request this engine issues; 0 is static mode.
	// view is the adopted membership view (zero value in static mode);
	// AdoptView advances both and swaps the quorum systems in one step.
	epoch quorum.Epoch
	view  quorum.View

	nextOp     msg.OpID
	opStride   msg.OpID
	wts        map[msg.RegisterID]uint64
	cache      map[msg.RegisterID]msg.Tagged
	readRepair bool
	repairs    int64
	maskB      int // b-masking parameter; -1 disables

	// fastRead enables the atomic read's one-round-trip path (on by
	// default); fastReads counts how often it fired.
	fastRead  bool
	fastReads int64

	tally    *metrics.AccessTally
	messages *metrics.Counter

	// health is the suspicion table of the transport this engine's client is
	// bound to (nil without one), shared with every other engine over that
	// transport; mask is the scratch its suspects are copied into for a pick.
	// See FaultAware.
	health *transport.Health
	mask   quorum.Mask

	// cacheHits counts monotone reads answered from the cache because the
	// queried quorum only returned older timestamps.
	cacheHits int64

	// rfree/wfree hold finished sessions whose storage (quorum slice,
	// reply maps) Begin* recycles, the steady-state mirror of the in-place
	// recycling Retry* already does — a pipelined client stops allocating
	// per operation. Sessions enter only through Release*, whose caller
	// vouches that no further reply can touch them.
	rfree []*ReadSession
	wfree []*WriteSession
}

// sessionFreeMax bounds the recycled-session free lists; sessions beyond it
// are dropped for the garbage collector, like pipeline timers past tfreeMax.
const sessionFreeMax = 512

// Option configures an Engine.
type Option func(*Engine)

// Monotone enables the monotone cache of Section 6.2: a read whose quorum
// returns only timestamps older than the freshest value this client has seen
// returns the cached value instead, guaranteeing condition [R4].
func Monotone() Option {
	return func(e *Engine) { e.monotone = true }
}

// WithTally records every picked quorum into t, feeding the load
// experiments.
func WithTally(t *metrics.AccessTally) Option {
	return func(e *Engine) { e.tally = t }
}

// WithMessageCounter adds 2·|quorum| to c for every operation (requests plus
// replies), feeding the message-complexity experiments.
func WithMessageCounter(c *metrics.Counter) Option {
	return func(e *Engine) { e.messages = c }
}

// WithReadRepair makes every completed read push the freshest observed
// value back to the quorum members that replied with older timestamps
// ("write-back", as in the read phase of classic replicated-data
// protocols). Repair costs up to |quorum| extra one-way messages per read
// but spreads fresh values without the writer's help — an ablation knob for
// the freshness/message trade-off. Drivers query RepairTargets after
// FinishRead and send the returned requests without awaiting replies.
func WithReadRepair() Option {
	return func(e *Engine) { e.readRepair = true }
}

// WithoutFastRead disables the atomic read's one-round-trip fast path, so
// every atomic read pays the full read + awaited write-back even when the
// quorum replied unanimously. This is the ablation knob the fast path was
// measured against; production configurations have no reason to set it.
func WithoutFastRead() Option {
	return func(e *Engine) { e.fastRead = false }
}

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

// WithWriteSystem makes writes pick quorums from a different system than
// reads — the asymmetric configuration of Malkhi–Reiter–Wright, where the
// intersection probability depends on both sizes: reads in an iterative
// algorithm far outnumber writes (m reads per write in Alg. 1 with one
// owned component), so shifting quorum mass from reads to writes can buy
// the same freshness for fewer messages. Both systems must cover the same
// servers.
func WithWriteSystem(sys quorum.System) Option {
	return func(e *Engine) { e.writeSys = sys }
}

// WithView starts the engine on an epoch-stamped membership view instead of
// a bare quorum system: the read and write systems are both constructed from
// the view, and every request the engine issues is stamped with the view's
// epoch so replicas on a newer view can reject it with the replacement. The
// sys argument of NewEngine is ignored when this option is present.
func WithView(v quorum.View) Option {
	if err := v.Validate(); err != nil {
		panic("register: " + err.Error())
	}
	return func(e *Engine) {
		e.view = v.Clone()
		e.epoch = v.Epoch
		e.sys = e.view.System()
		e.writeSys = nil // recomputed from the view after options run
	}
}

// NewEngine returns a register engine for the given writer identity, quorum
// system, and randomness stream.
func NewEngine(writer int32, sys quorum.System, rnd *rand.Rand, opts ...Option) *Engine {
	e := &Engine{
		writer:   writer,
		sys:      sys,
		rnd:      rnd,
		wts:      make(map[msg.RegisterID]uint64),
		cache:    make(map[msg.RegisterID]msg.Tagged),
		maskB:    -1,
		fastRead: true,
		opStride: 1,
	}
	for _, o := range opts {
		o(e)
	}
	if e.writeSys == nil {
		e.writeSys = e.sys
	}
	if e.writeSys.N() != e.sys.N() {
		panic(fmt.Sprintf("register: write system covers %d servers, read system %d",
			e.writeSys.N(), e.sys.N()))
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

// IsMonotone reports whether the monotone cache is enabled.
func (e *Engine) IsMonotone() bool { return e.monotone }

// CacheHits returns how many reads were answered from the monotone cache.
func (e *Engine) CacheHits() int64 { return e.cacheHits }

// Repairs returns how many repair messages RepairTargets has issued.
func (e *Engine) Repairs() int64 { return e.repairs }

// FastReads returns how many atomic reads completed on the one-round-trip
// fast path, i.e. without a write-back phase.
func (e *Engine) FastReads() int64 { return e.fastReads }

// RepairTargets returns the write-back requests a completed read should
// fan out (empty unless WithReadRepair is set): one WriteReq carrying the
// read's result to each quorum member that returned an older timestamp.
// Replicas ignore stale repairs by timestamp, so repairs are idempotent
// and need no acknowledgment.
func (e *Engine) RepairTargets(s *ReadSession, result msg.Tagged) (servers []int, req msg.WriteReq) {
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
	if e.messages != nil {
		e.messages.Add(int64(len(servers)))
	}
	return servers, msg.WriteReq{Reg: s.Reg, Op: e.nextOp, Tag: result}
}

// FaultAware reports whether the engine picks around suspected servers and
// tops attempts up (TopUpRead, TopUpWrite) instead of restarting them: it has
// a suspicion table, any Size() distinct servers form a quorum of both its
// systems (quorum.KSubsets), and it is not b-masking — a masked read needs
// b+1 matching replies out of one picked quorum, which a substituted member
// would not have been drawn for. Everything else keeps the restart-and-re-pick
// path of RetryRead and RetryWrite.
func (e *Engine) FaultAware() bool {
	return e.health != nil && e.maskB < 0 && quorum.IsKSubsets(e.sys) && quorum.IsKSubsets(e.writeSys)
}

// pickAvoiding draws a quorum from the servers the table does not suspect.
// It is reached only while something is suspected, which only clients of
// FaultAware engines ever cause.
func (e *Engine) pickAvoiding(sys quorum.System, dst []int) []int {
	e.mask = e.health.MaskInto(e.mask)
	return quorum.PickAvoiding(sys, dst, e.rnd, e.mask)
}

func (e *Engine) pick(sys quorum.System) []int {
	var q []int
	if e.health.Any() {
		q = e.pickAvoiding(sys, nil)
	} else {
		q = sys.Pick(e.rnd)
	}
	if e.tally != nil {
		e.tally.Touch(q)
	}
	if e.messages != nil {
		e.messages.Add(2 * int64(len(q)))
	}
	return q
}

// pickInto is pick for the retry path: it refills the abandoned attempt's
// quorum slice in place instead of allocating a fresh one. Note the
// probabilistic and majority systems sample through a different (equally
// uniform) algorithm here than in pick, so seeded runs draw retry quorums
// from a different stream than first attempts — deterministic either way.
func (e *Engine) pickInto(sys quorum.System, dst []int) []int {
	var q []int
	if e.health.Any() {
		q = e.pickAvoiding(sys, dst)
	} else {
		q = quorum.PickInto(sys, dst, e.rnd)
	}
	if e.tally != nil {
		e.tally.Touch(q)
	}
	if e.messages != nil {
		e.messages.Add(2 * int64(len(q)))
	}
	return q
}

// BeginRead starts a read of reg: it picks the quorum and returns the
// session the driver must complete by delivering every member's reply.
func (e *Engine) BeginRead(reg msg.RegisterID) *ReadSession {
	e.guard.enter()
	defer e.guard.leave()
	e.nextOp += e.opStride
	if n := len(e.rfree); n > 0 {
		s := e.rfree[n-1]
		e.rfree[n-1] = nil
		e.rfree = e.rfree[:n-1]
		q := e.pickInto(e.sys, s.Quorum)
		*s = ReadSession{
			Reg:       reg,
			Op:        e.nextOp,
			fanout:    fanout{Quorum: q, Epoch: e.epoch},
			tags:      sizeTags(s.tags, len(q)),
			unanimous: true,
		}
		return s
	}
	q := e.pick(e.sys)
	return &ReadSession{
		Reg:       reg,
		Op:        e.nextOp,
		fanout:    fanout{Quorum: q, Epoch: e.epoch},
		tags:      sizeTags(nil, len(q)),
		unanimous: true,
	}
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

// ReleaseRead returns a retired read session's storage to the engine for
// BeginRead to recycle. The caller vouches that the session's operation id
// has left every reply route — nothing may call OnReply (or read Best) on
// it afterwards. Releasing is optional; sessions that are never released
// are simply collected.
func (e *Engine) ReleaseRead(s *ReadSession) {
	e.guard.enter()
	defer e.guard.leave()
	if s == nil || len(e.rfree) >= sessionFreeMax {
		return
	}
	e.rfree = append(e.rfree, s)
}

// RetryRead abandons a read session whose fan-out could not complete —
// quorum members crashed, timed out, or became unreachable — and starts the
// operation over with a fresh operation id and a freshly picked quorum.
// This is the paper's availability mechanism (Section 4): a probabilistic
// quorum client never depends on any particular quorum, so a client facing
// unavailable servers simply draws another. The new operation id makes
// stale replies addressed to the abandoned session fall through the
// session's duplicate filter.
func (e *Engine) RetryRead(s *ReadSession) *ReadSession {
	e.guard.enter()
	defer e.guard.leave()
	e.nextOp += e.opStride
	// The abandoned session's storage is dead the moment its op id is
	// retired, so the retry recycles its quorum and tag slices — a client
	// riding out an outage stops allocating per attempt.
	q := e.pickInto(e.sys, s.Quorum)
	return &ReadSession{
		Reg:       s.Reg,
		Op:        e.nextOp,
		fanout:    fanout{Quorum: q, Epoch: e.epoch},
		tags:      sizeTags(s.tags, len(q)),
		unanimous: true,
	}
}

// RetryWrite abandons a write session whose fan-out could not complete and
// re-issues the same logical write to a freshly picked quorum. The tag is
// preserved: a retried write is the same write, and replicas deduplicate by
// timestamp, so members reached by both the abandoned and the retried
// attempt converge on one installation. Only the operation id is fresh, so
// stray acknowledgments of the abandoned attempt are ignored.
func (e *Engine) RetryWrite(s *WriteSession) *WriteSession {
	e.guard.enter()
	defer e.guard.leave()
	e.nextOp += e.opStride
	// As in RetryRead, the abandoned session's storage is recycled.
	return &WriteSession{
		Reg:    s.Reg,
		Op:     e.nextOp,
		Tag:    s.Tag,
		fanout: fanout{Quorum: checkQuorumCap(e.pickInto(e.writeSys, s.Quorum)), Epoch: e.epoch},
	}
}

// checkQuorumCap enforces the acked bitmask's quorum-size cap (see
// fanout.replied) on the write path, where there is no tag buffer to
// do it as a side effect.
func checkQuorumCap(q []int) []int {
	if len(q) > 64 {
		panic("register: quorum exceeds the 64-member session cap")
	}
	return q
}

// TopUpRead replaces the member at quorum position i of s — one known lost
// and still owed its reply — by a server drawn uniformly from those neither
// in the attempt nor suspected, and returns it; the caller re-sends
// s.Request() to it under the same operation id. Every reply already
// collected stays, and the lost member's own reply, should it still come,
// falls outside the quorum like any stranger's.
//
// It is sound because the engine is FaultAware: the quorum after the swap is
// Size() distinct servers, hence a quorum; for a majority that keeps strict
// intersection (and with it regularity, ABD atomicity and the unanimous fast
// read) intact, and for k of n the quorum stays a uniform k-subset of the
// servers the client believes live — the paper's Section 4 availability
// argument. ok is false, and nothing changes, when the engine is not
// FaultAware, s was picked under an older view (its indices mean something
// else now), position i has already answered, or no candidate remains; the
// caller then falls back to its deadline and RetryRead.
func (e *Engine) TopUpRead(s *ReadSession, i int) (server int, ok bool) {
	return e.topUp(&s.fanout, i)
}

// TopUpWrite is TopUpRead for a write session: the re-sent request carries
// the same tag, and replicas deduplicate by timestamp.
func (e *Engine) TopUpWrite(s *WriteSession, i int) (server int, ok bool) {
	return e.topUp(&s.fanout, i)
}

func (e *Engine) topUp(f *fanout, i int) (int, bool) {
	e.guard.enter()
	defer e.guard.leave()
	if !e.FaultAware() || f.Epoch != e.epoch || i < 0 || i >= len(f.Quorum) || !f.Pending(i) {
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
	if e.messages != nil {
		e.messages.Add(2)
	}
	return srv, true
}

// ProbeRead returns a suspected server that is due a probe, for the caller to
// send s.Request() to as a shadow member: the server is not in s's quorum, so
// its reply completes nothing and only clears the suspicion (any reply does).
// At most one read per suspected server and transport.ProbeInterval gets one,
// which is what notices a recovery while picks avoid the server.
func (e *Engine) ProbeRead(s *ReadSession) (server int, ok bool) {
	server, ok = e.health.ProbeTarget()
	return server, ok && pos(s.Quorum, server) < 0
}

// FinishRead applies the monotone filter to a completed read session and
// returns the value the register returns to the application. For a
// non-monotone engine it is simply the session's maximum-timestamp value.
func (e *Engine) FinishRead(s *ReadSession) msg.Tagged {
	e.guard.enter()
	defer e.guard.leave()
	return e.finishRead(s)
}

// TryFinishReadFast decides whether a completed atomic-read read phase may
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
// as FinishRead) and true; on any disagreement, cache override, masking, or
// with the fast path disabled, it returns false and the caller proceeds
// with the ordinary two-phase transition.
func (e *Engine) TryFinishReadFast(s *ReadSession) (msg.Tagged, bool) {
	e.guard.enter()
	defer e.guard.leave()
	if !e.fastRead || e.maskB >= 0 || !s.Unanimous() {
		return msg.Tagged{}, false
	}
	if e.monotone {
		if cached, ok := e.cache[s.Reg]; ok && s.Best().TS.Less(cached.TS) {
			return msg.Tagged{}, false
		}
	}
	e.fastReads++
	return e.finishRead(s), true
}

func (e *Engine) finishRead(s *ReadSession) msg.Tagged {
	best := s.Best()
	if !e.monotone {
		return best
	}
	if cached, ok := e.cache[s.Reg]; ok && best.TS.Less(cached.TS) {
		e.cacheHits++
		return cached
	}
	e.cache[s.Reg] = best
	return best
}

// ObserveOwnWrite folds a value this client itself wrote into the monotone
// cache, so a writer never reads a value older than its own latest write.
// The paper's single-writer model has the writer of a register also reading
// it in Alg. 1; without this the cache would be one write behind.
func (e *Engine) ObserveOwnWrite(reg msg.RegisterID, tag msg.Tagged) {
	e.guard.enter()
	defer e.guard.leave()
	e.observeOwnWrite(reg, tag)
}

func (e *Engine) observeOwnWrite(reg msg.RegisterID, tag msg.Tagged) {
	if !e.monotone {
		return
	}
	if cached, ok := e.cache[reg]; !ok || cached.TS.Less(tag.TS) {
		e.cache[reg] = tag
	}
}

// BeginWrite starts a single-writer write of val to reg: it advances the
// register's write timestamp, picks the quorum, and returns the session the
// driver must complete by delivering every member's acknowledgment.
func (e *Engine) BeginWrite(reg msg.RegisterID, val msg.Value) *WriteSession {
	e.guard.enter()
	defer e.guard.leave()
	e.nextOp += e.opStride
	e.wts[reg]++
	tag := msg.Tagged{TS: msg.Timestamp{Seq: e.wts[reg], Writer: e.writer}, Val: val}
	e.observeOwnWrite(reg, tag)
	return e.newWriteSessionLocked(reg, tag)
}

// newWriteSessionLocked builds a write session around tag, recycling a
// released session's storage when one is free.
func (e *Engine) newWriteSessionLocked(reg msg.RegisterID, tag msg.Tagged) *WriteSession {
	if n := len(e.wfree); n > 0 {
		s := e.wfree[n-1]
		e.wfree[n-1] = nil
		e.wfree = e.wfree[:n-1]
		*s = WriteSession{
			Reg:    reg,
			Op:     e.nextOp,
			Tag:    tag,
			fanout: fanout{Quorum: checkQuorumCap(e.pickInto(e.writeSys, s.Quorum)), Epoch: e.epoch},
		}
		return s
	}
	return &WriteSession{
		Reg:    reg,
		Op:     e.nextOp,
		Tag:    tag,
		fanout: fanout{Quorum: checkQuorumCap(e.pick(e.writeSys)), Epoch: e.epoch},
	}
}

// ReleaseWrite is ReleaseRead for write sessions: the caller vouches that
// nothing may call OnAck on s afterwards.
func (e *Engine) ReleaseWrite(s *WriteSession) {
	e.guard.enter()
	defer e.guard.leave()
	if s == nil || len(e.wfree) >= sessionFreeMax {
		return
	}
	e.wfree = append(e.wfree, s)
}

// BeginWriteWithTS starts a write carrying an explicit timestamp. The
// multi-writer extension uses it after a read phase has discovered the
// current maximum timestamp; single-writer callers should use BeginWrite.
func (e *Engine) BeginWriteWithTS(reg msg.RegisterID, tag msg.Tagged) *WriteSession {
	e.guard.enter()
	defer e.guard.leave()
	e.nextOp += e.opStride
	e.observeOwnWrite(reg, tag)
	return e.newWriteSessionLocked(reg, tag)
}

// NextMultiWriterTS returns the timestamp a multi-writer write should carry
// after observing maxSeen as the largest timestamp in its read phase:
// sequence one past the maximum, tie-broken by this engine's writer id.
func (e *Engine) NextMultiWriterTS(maxSeen msg.Timestamp) msg.Timestamp {
	return msg.Timestamp{Seq: maxSeen.Seq + 1, Writer: e.writer}
}
