package register

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"probquorum/internal/metrics"
	"probquorum/internal/msg"
	"probquorum/internal/quorum"
	"probquorum/internal/trace"
	"probquorum/internal/transport"
)

// ErrPipelineClosed is returned by operations submitted to (or pending in) a
// Pipeline that has been closed.
var ErrPipelineClosed = errors.New("register: pipeline closed")

// SendFunc transmits one protocol request to one replica server. It must not
// block indefinitely and must be safe for concurrent use; transports coalesce
// the requests queued for a server into batch frames on their own schedule.
// Delivery may fail silently (a dropped frame, a partitioned peer) — the
// Pipeline's per-operation deadline then tops the attempt up or re-issues it.
type SendFunc func(server int, req any)

// Pipeline is the register client: a concurrency-safe driver of
// Operations over one Engine that keeps many operations in flight per
// process. The paper's model allows one pending operation per process, which
// serializes every quorum round-trip; the Pipeline relaxes exactly the part
// of that discipline that latency-bound deployments cannot afford while
// preserving the guarantees the algorithm's correctness actually rests on
// (a Client is the Pipeline used at depth one, which is the paper's model):
//
//   - Operations on different registers proceed fully concurrently — reads of
//     m registers overlap their quorum round-trips instead of paying m
//     sequential ones.
//   - Operations on the same register are ordered per client (FIFO): an
//     operation starts only after the previous same-register operation by
//     this client completed. This is what keeps the monotone variant's [R4]
//     (per-process read monotonicity) and write-timestamp ordering intact —
//     the Engine's monotone cache and timestamp counter are only touched in
//     per-register program order.
//   - All Engine and Operation calls are serialized under one mutex, so the
//     Engine's single-caller assertion (opGuard) never trips: session
//     bookkeeping is cheap and local, and only the network fan-outs overlap.
//
// The protocol itself — sessions, the two-round transitions, masking,
// repair, top-up and the retry budget — is Operation's; the Pipeline owns
// the per-register FIFO, the op-id map that routes replies, the shared
// deadline list, and the observer, trace and gauge around them.
//
// Replies are matched to operations by operation id (Deliver), not by
// request/reply pairing, so a transport may deliver replies in any order,
// deliver duplicates, or drop them entirely — a per-operation deadline
// (PipeTimeout) covers what is lost. Over a Transport (NewPipelineOver) the
// fan-out is fault-aware: a member the transport reports lost is replaced
// within the attempt, and picks avoid suspected servers (see memberLost).
type Pipeline struct {
	mu     sync.Mutex
	engine *Engine
	send   SendFunc
	// tr is the transport underneath send when the pipeline was built by
	// NewPipelineOver (nil otherwise): view adoptions triggered by stale-epoch
	// rejects re-target it before the rejected operation re-fans out.
	tr transport.Transport
	// health is the transport's suspicion table, shared with the engine and
	// with the other shards of a keyspace; nil without a transport, which
	// leaves every fault to the deadline's restart-and-re-pick.
	health *transport.Health

	clock    func() int64
	log      *trace.Log
	proc     msg.NodeID
	gauge    *metrics.Gauge
	counters *metrics.TransportCounters
	obsv     *Observer
	epoch    time.Time // monotonic base for the observer's phase marks

	opTimeout time.Duration
	retries   int

	inflight map[msg.OpID]*PendingOp
	queues   map[msg.RegisterID]*regQueue
	qfree    []*regQueue  // recycled empty queue entries, capped at qfreeMax
	tfree    []*pipeTimer // recycled deadline-list entries, capped at tfreeMax

	// The shared deadline list (see pipeTimer): thead/ttail order armed
	// operations by expiry, expiry is the one runtime timer armed at the
	// head's deadline, and expiryArmed says whether a wake is scheduled —
	// releases never touch the timer, so a wake may find nothing expired
	// and simply re-arm for the new head.
	thead, ttail *pipeTimer
	expiry       *time.Timer
	expiryArmed  bool
	// live is how expiry's callback finds the pipeline. The runtime keeps a
	// stopped timer, callback included, until its original expiry comes
	// round; Close clears live so that what lingers is one word, not the
	// pipeline and everything it points to.
	live *atomic.Pointer[Pipeline]

	closed   bool
	closeErr error
	retried  atomic.Int64
	fanSeq   atomic.Uint32 // dispatch counter for FanOut sampling
}

// globalClock is the default logical clock for trace records: one atomic
// counter shared by every Pipeline in the process, so the records of
// concurrent clients interleave consistently.
var globalClock atomic.Int64

func nextGlobalTick() int64 { return globalClock.Add(1) }

// PipelineOption configures a Pipeline (and so a Client or a Keyspace).
type PipelineOption func(*Pipeline)

// PipeTrace records every completed operation into log under process
// identity proc. Reads are recorded at completion; writes are recorded at
// the start of their write round (pending) and completed when acknowledged,
// so a run that stops with writes in flight still validates reads against
// them.
func PipeTrace(log *trace.Log, proc msg.NodeID) PipelineOption {
	return func(p *Pipeline) { p.log = log; p.proc = proc }
}

// PipeClock overrides the logical clock used for trace timestamps. The
// default is a process-wide atomic counter; the simulator passes its virtual
// clock, the cluster runtime its tick counter.
func PipeClock(clock func() int64) PipelineOption {
	return func(p *Pipeline) { p.clock = clock }
}

// PipeGauge tracks the number of submitted-but-incomplete operations in g;
// its high-watermark is how tests assert that operations genuinely
// overlapped.
func PipeGauge(g *metrics.Gauge) PipelineOption {
	return func(p *Pipeline) { p.gauge = g }
}

// PipeCounters records fault-path events into tc: deadline expiries and
// masking rejections that spent retry budget (Retries) and the members still
// silent at a deadline (Timeouts), replaced members (TopUps), newly
// suspected servers (Suspicions), shadow probes (Probes), adopted views
// (ViewAdopts), and replies that arrived after their operation was abandoned
// or completed (StaleDrops).
func PipeCounters(tc *metrics.TransportCounters) PipelineOption {
	return func(p *Pipeline) { p.counters = tc }
}

// PipeTimeout arms a per-operation deadline: an operation not complete
// within d has its silent members replaced (a fault-aware pipeline, see
// memberLost) or is abandoned and re-issued on a freshly picked quorum
// (writes keep their timestamp, so duplicate installations converge), either
// of which spends one unit of retry budget. retries caps the total attempts
// per operation at retries+1 (0 = unlimited); exhaustion surfaces
// ErrQuorumUnavailable. The budget also pays for masked reads the vote count
// rejects, with or without a deadline. Without a deadline an operation waits
// for its replies, and a member the transport reports lost that it cannot
// replace fails it with that member's error.
//
// Deadlines use wall-clock timers; do not set one on a virtual-time runtime
// (the simulator runs the Pipeline without deadlines instead).
func PipeTimeout(d time.Duration, retries int) PipelineOption {
	return func(p *Pipeline) { p.opTimeout = d; p.retries = retries }
}

// PipeObserver records phase-level timings of every operation into o; see
// Observer for the phase semantics.
func PipeObserver(o *Observer) PipelineOption {
	return func(p *Pipeline) { p.obsv = o }
}

// NewPipeline wraps engine for concurrent use, sending requests through
// send. The Pipeline owns the engine from now on: calling Engine methods
// directly while the Pipeline is live trips the engine's concurrency guard.
func NewPipeline(engine *Engine, send SendFunc, opts ...PipelineOption) *Pipeline {
	p := &Pipeline{
		engine:   engine,
		send:     send,
		clock:    nextGlobalTick,
		inflight: make(map[msg.OpID]*PendingOp),
		queues:   make(map[msg.RegisterID]*regQueue),
	}
	for _, o := range opts {
		o(p)
	}
	// Phase marks and deadline-list entries are monotonic offsets from this
	// epoch rather than time.Time values: reading the monotonic clock alone
	// (time.Since) is nearly twice as cheap as time.Now, and the observer
	// reads the clock three times per operation. The deadline list needs the
	// monotonic reading unconditionally — a zero epoch would fall back to
	// wall-clock arithmetic, and a clock step would then fire (or starve)
	// operation timeouts.
	p.epoch = time.Now()
	return p
}

// NewPipelineOver builds a Pipeline running over a Transport: sends go
// through tr.Send and the transport's sink feeds Deliver. A transport-wide
// fatal error closes the pipeline with it. A per-server error event, or a
// Send that could not hand its request off, means every request in flight to
// that server is lost: the server is marked suspected in the suspicion table
// created here, and the operations waiting on it replace it at once
// (memberLost) instead of waiting out their deadline. Send's ErrNotInView is
// not a fault — the server left the view on purpose — and stays with the
// deadline.
func NewPipelineOver(engine *Engine, tr transport.Transport, opts ...PipelineOption) *Pipeline {
	var p *Pipeline
	p = NewPipeline(engine, sendOver(tr, func(server int, err error) { p.memberLost(server, err) }), opts...)
	p.bind(tr, transport.NewHealth(tr.N()))
	deliverTo(tr, p)
	// Transports with a concrete-typed reply path deliver whole frames into
	// ReplyBatch, skipping the interface boxing of the Sink closure
	// (which remains bound for errors and oddball payloads).
	transport.BindReplies(tr, p)
	return p
}

// faultSink is what a transport's traffic is delivered to: a Pipeline, or a
// Keyspace fanning out to its shards.
type faultSink interface {
	Deliver(server int, payload any)
	Close(err error)
	memberLost(server int, cause error)
}

// deliverTo binds tr's sink to fs: replies are delivered, a transport-wide
// error closes it, a per-server error is a lost member.
func deliverTo(tr transport.Transport, fs faultSink) {
	tr.Bind(func(server int, payload any, err error) {
		switch {
		case err == nil:
			fs.Deliver(server, payload)
		case server == transport.Broadcast:
			fs.Close(err)
		default:
			fs.memberLost(server, err)
		}
	})
}

// sendOver is the SendFunc of a client running over tr: a request tr could
// not hand off is reported to lost, except into a server that left the view.
func sendOver(tr transport.Transport, lost func(server int, cause error)) SendFunc {
	return func(server int, req any) {
		if err := tr.Send(server, req); err != nil && !errors.Is(err, transport.ErrNotInView) {
			lost(server, err)
		}
	}
}

// bind attaches the pipeline (and its engine's picks) to the transport it
// runs over and that transport's suspicion table.
func (p *Pipeline) bind(tr transport.Transport, h *transport.Health) {
	p.tr = tr
	p.health = h
	p.engine.health = h
}

// Engine returns the wrapped engine. Callers must not invoke its methods
// while operations are in flight.
func (p *Pipeline) Engine() *Engine { return p.engine }

// AdoptView installs a newer membership view on the pipeline's engine (and
// re-targets its transport, when it has one), reporting whether the view was
// adopted. In-flight operations keep waiting on their already-picked quorums;
// they migrate lazily — via a stale-epoch reject or their own retry deadline —
// which is safe because a transition-window replica accepts ops stamped with
// epochs at or above its own.
func (p *Pipeline) AdoptView(v quorum.View) bool {
	p.mu.Lock()
	ok := p.engine.AdoptView(v)
	p.mu.Unlock()
	if !ok {
		return false
	}
	if p.counters != nil {
		p.counters.ViewAdopts.Inc()
	}
	if p.tr != nil {
		_, _ = transport.Update(p.tr, v)
	}
	return true
}

// Epoch returns the membership epoch the pipeline currently operates under
// (0 in static mode). Unlike Engine().Epoch(), it is safe to call while
// operations are in flight: adoption happens under the pipeline lock.
func (p *Pipeline) Epoch() quorum.Epoch {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.engine.Epoch()
}

// Retries returns how many attempts spent retry budget and went on: deadline
// expiries, each answered by a top-up of the silent members or a re-issue on
// a fresh quorum, and masked reads the vote count rejected. Top-ups on a
// transport's error signal are not retries.
func (p *Pipeline) Retries() int64 { return p.retried.Load() }

// Health returns, per server, whether the pipeline's transport currently
// suspects it, since when, and the last failure attributed to it (nil for a
// pipeline built without a transport).
func (p *Pipeline) Health() []transport.ServerHealth { return p.health.Snapshot() }

// InFlight returns the number of submitted-but-incomplete operations.
func (p *Pipeline) InFlight() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, q := range p.queues {
		n += len(q.ops) - q.head
	}
	return n
}

// regQueue is one register's FIFO of submitted operations: ops[head] is in
// flight, the rest are waiting their turn. The head index advances instead
// of re-slicing so the entry keeps its backing array across a burst, and an
// emptied entry goes back on the pipeline's free list — a keyspace client
// touching thousands of keys reaches steady state without a queue
// allocation per newly-hot key, and a key gone idle costs no memory beyond
// its (deleted) map slot.
type regQueue struct {
	ops  []*PendingOp
	head int
}

// qfreeMax bounds the recycled-queue free list; beyond it (and for entries
// whose backing array grew past qfreeMax slots) emptied queues are released
// to the collector rather than pinned forever. Sized for a client keeping a
// couple of hundred registers in flight — the reply-coalescing benchmarks'
// working width — so steady state stays allocation-free.
const qfreeMax = 256

func (p *Pipeline) getQueueLocked() *regQueue {
	if n := len(p.qfree); n > 0 {
		q := p.qfree[n-1]
		p.qfree[n-1] = nil
		p.qfree = p.qfree[:n-1]
		return q
	}
	return &regQueue{}
}

func (p *Pipeline) putQueueLocked(q *regQueue) {
	if len(p.qfree) >= qfreeMax || cap(q.ops) > qfreeMax {
		return
	}
	q.ops = q.ops[:0]
	q.head = 0
	p.qfree = append(p.qfree, q)
}

// pipeTimer is one operation's entry in the pipeline's shared deadline
// list. Every arm uses the same p.opTimeout, so deadlines are monotone in
// arm order and a FIFO suffices: armTimerLocked links entries at the tail,
// expiries pop from the head, and the whole pipeline keeps exactly one
// runtime timer (p.expiry) armed at the head entry's deadline. At pipeline
// throughput a per-operation time.Timer almost never fires (operations
// complete in microseconds against a multi-second deadline) but costs a
// timer-heap Reset on every arm and Stop on every completion — the shared
// list makes both a couple of pointer writes, and the one runtime timer
// wakes at most once per opTimeout interval. An unlinked entry has nil
// prev/next and is not the head, which is how armTimerLocked tells a
// recycled node from a still-linked one. Entries are pooled on p.tfree.
type pipeTimer struct {
	op         *PendingOp
	attempt    int32
	deadline   time.Duration // since p.epoch
	prev, next *pipeTimer
}

// tfreeMax bounds the recycled-timer free list, like qfreeMax for queues.
const tfreeMax = 512

// sendsPool recycles the fan-out buffers the pipeline's entry points fill
// under the lock and drain outside it (concurrent callers cannot share a
// per-pipeline buffer). Each holds a handful of sends, and the call rate is
// the pipeline's throughput — exactly the sync.Pool shape. Buffers are
// cleared before returning so no request outlives its dispatch.
var sendsPool = sync.Pool{New: func() any { s := make([]Send, 0, 16); return &s }}

func getSends() *[]Send { return sendsPool.Get().(*[]Send) }

func putSends(s *[]Send) {
	clear(*s)
	*s = (*s)[:0]
	sendsPool.Put(s)
}

// PendingOp is one submitted pipeline operation. Wait blocks until it
// completes; Done exposes the completion signal for select loops.
type PendingOp struct {
	// o is the operation's protocol state, driven under the pipeline lock.
	o        Operation
	invoke   int64
	wsHandle int
	timer    *pipeTimer

	// started/phaseMark are clock marks for the pipeline's observer,
	// expressed as monotonic offsets from the pipeline's epoch; all stay
	// zero (and cost nothing) when no observer is attached. The phase
	// durations accumulate under the pipeline lock but are observed into
	// the histograms by signal, outside it — the observer must not
	// lengthen the pipeline's critical section.
	started   time.Duration
	phaseMark time.Duration
	pickDur   time.Duration
	waitDur   time.Duration
	wbDur     time.Duration

	// Completion is a lazy-channel protocol: most waiters arrive after the
	// operation already completed (deep pipelines Wait in submission order),
	// so the common case is a flag check under cmu and no channel ever
	// exists — one fewer allocation per operation. done is created on demand
	// by the first Done/Wait that beats completion. The result is o.result;
	// err is the terminal error — and, while the operation is in flight, the
	// last member loss it could not replace, which an exhausted budget
	// reports.
	cmu       sync.Mutex
	done      chan struct{}
	callback  func(msg.Tagged, error)
	err       error
	finished  bool
	completed bool
}

// Reg returns the register the operation addresses.
func (op *PendingOp) Reg() msg.RegisterID { return op.o.reg }

// Done returns a channel closed when the operation completes.
func (op *PendingOp) Done() <-chan struct{} {
	op.cmu.Lock()
	defer op.cmu.Unlock()
	if op.done == nil {
		op.done = make(chan struct{})
		if op.completed {
			close(op.done)
		}
	}
	return op.done
}

// Wait blocks until the operation completes and returns its result: the
// tagged value read (reads) or written (writes), and the terminal error if
// the operation failed.
func (op *PendingOp) Wait() (msg.Tagged, error) {
	op.cmu.Lock()
	if op.completed {
		op.cmu.Unlock()
		return op.o.result, op.err
	}
	if op.done == nil {
		op.done = make(chan struct{})
	}
	done := op.done
	op.cmu.Unlock()
	<-done
	return op.o.result, op.err
}

// complete publishes the operation's terminal state (result/err were
// written before the call) and wakes any waiter parked on the lazy done
// channel.
func (op *PendingOp) complete() {
	op.cmu.Lock()
	op.completed = true
	if op.done != nil {
		close(op.done)
	}
	op.cmu.Unlock()
}

// Read performs one pipelined read, blocking until it completes. Operations
// submitted by other goroutines proceed concurrently underneath it.
func (p *Pipeline) Read(reg msg.RegisterID) (msg.Tagged, error) {
	return p.ReadAsync(reg).Wait()
}

// Write performs one pipelined write, blocking until it is acknowledged.
func (p *Pipeline) Write(reg msg.RegisterID, val msg.Value) error {
	_, err := p.WriteAsync(reg, val).Wait()
	return err
}

// ReadAtomic performs one pipelined ABD atomic read, blocking until it
// completes: a read phase followed, when the quorum's replies disagree, by
// an awaited write-back of the result. A unanimous quorum elides the
// write-back and the read completes in one round trip.
func (p *Pipeline) ReadAtomic(reg msg.RegisterID) (msg.Tagged, error) {
	return p.ReadAtomicAsync(reg).Wait()
}

// ReadAsync submits a read and returns immediately; Wait on the returned
// operation for the result.
func (p *Pipeline) ReadAsync(reg msg.RegisterID) *PendingOp {
	return p.submit(opRead, reg, nil, nil)
}

// ReadAtomicAsync submits an ABD atomic read and returns immediately.
func (p *Pipeline) ReadAtomicAsync(reg msg.RegisterID) *PendingOp {
	return p.submit(opAtomicRead, reg, nil, nil)
}

// WriteAsync submits a write and returns immediately.
func (p *Pipeline) WriteAsync(reg msg.RegisterID, val msg.Value) *PendingOp {
	return p.submit(opWrite, reg, val, nil)
}

// ReadAsyncFunc submits a read whose completion invokes fn (outside the
// pipeline lock, on the goroutine that completed the operation). Callback
// submission is how single-threaded drivers — the discrete-event simulator —
// chain pipelined operations without blocking.
func (p *Pipeline) ReadAsyncFunc(reg msg.RegisterID, fn func(msg.Tagged, error)) *PendingOp {
	return p.submit(opRead, reg, nil, fn)
}

// WriteAsyncFunc submits a write whose completion invokes fn.
func (p *Pipeline) WriteAsyncFunc(reg msg.RegisterID, val msg.Value, fn func(msg.Tagged, error)) *PendingOp {
	return p.submit(opWrite, reg, val, fn)
}

// ReadAtomicAsyncFunc submits an ABD atomic read whose completion invokes fn.
func (p *Pipeline) ReadAtomicAsyncFunc(reg msg.RegisterID, fn func(msg.Tagged, error)) *PendingOp {
	return p.submit(opAtomicRead, reg, nil, fn)
}

// WriteMultiAsyncFunc submits a multi-writer write of val (the paper's
// Section 8 extension): a read round discovers the register's current
// maximum timestamp, and a write round installs val one past it, tie-broken
// by writer id. Its completion invokes fn (if non-nil) with the tag
// written.
func (p *Pipeline) WriteMultiAsyncFunc(reg msg.RegisterID, val msg.Value, fn func(msg.Tagged, error)) *PendingOp {
	return p.submit(opWriteMulti, reg, val, fn)
}

func (p *Pipeline) submit(kind opKind, reg msg.RegisterID, val msg.Value, fn func(msg.Tagged, error)) *PendingOp {
	op := &PendingOp{o: Operation{e: p.engine, kind: kind, reg: reg, val: val, retries: int32(p.retries)}, callback: fn}
	p.mu.Lock()
	if p.closed {
		err := p.closeErr
		p.mu.Unlock()
		op.err = err
		op.complete()
		if fn != nil {
			fn(msg.Tagged{}, err)
		}
		return op
	}
	if p.gauge != nil {
		p.gauge.Inc()
	}
	q := p.queues[reg]
	if q == nil {
		q = p.getQueueLocked()
		p.queues[reg] = q
	}
	q.ops = append(q.ops, op)
	sends := getSends()
	if len(q.ops)-q.head == 1 {
		p.startLocked(op, sends)
	}
	p.mu.Unlock()
	p.dispatch(*sends)
	putSends(sends)
	return op
}

// startLocked begins the head-of-queue operation: the Operation opens its
// session (assigning the operation id and, for writes, the timestamp — so
// same-register timestamps are assigned in client FIFO order), the id joins
// the in-flight map, and the quorum fan-out — plus a probe of a suspected
// server, when one is due — is captured.
func (p *Pipeline) startLocked(op *PendingOp, sends *[]Send) {
	if p.obsv != nil {
		op.started = time.Since(p.epoch)
		op.phaseMark = op.started
	}
	if p.log != nil {
		// invoke is only ever read back under p.log != nil, and the default
		// clock is a process-wide atomic — skip the contended Add when no
		// trace is attached.
		op.invoke = p.clock()
	}
	*sends = op.o.Start(*sends)
	p.inflight[op.o.currentID()] = op
	if op.o.kind == opWrite {
		p.traceWriteLocked(op)
	}
	if p.health.Any() {
		if probe, ok := op.o.Probe(); ok {
			*sends = append(*sends, probe)
			if p.counters != nil {
				p.counters.Probes.Inc()
			}
		}
	}
	p.lapLocked(op, &op.pickDur)
	p.armTimerLocked(op)
}

// traceWriteLocked records op's write round as pending in the trace.
func (p *Pipeline) traceWriteLocked(op *PendingOp) {
	if p.log != nil {
		op.wsHandle = p.log.Begin(trace.Op{
			Kind: trace.KindWrite, Proc: p.proc, Reg: op.o.reg,
			Invoke: op.invoke, Tag: op.o.PendingTag(),
		})
	}
}

// lapLocked closes op's current observer phase into *into and starts the
// next one.
func (p *Pipeline) lapLocked(op *PendingOp, into *time.Duration) {
	if p.obsv == nil {
		return
	}
	now := time.Since(p.epoch)
	*into += now - op.phaseMark
	op.phaseMark = now
}

// waitLap is where op's reply wait accumulates: WriteBack in the second
// round of a two-round operation, QuorumWait otherwise.
func (op *PendingOp) waitLap() *time.Duration {
	if op.o.secondRound() {
		return &op.wbDur
	}
	return &op.waitDur
}

func (p *Pipeline) armTimerLocked(op *PendingOp) {
	if p.opTimeout <= 0 {
		return
	}
	pt := op.timer
	if pt == nil {
		if n := len(p.tfree); n > 0 {
			pt = p.tfree[n-1]
			p.tfree[n-1] = nil
			p.tfree = p.tfree[:n-1]
		} else {
			pt = &pipeTimer{}
		}
		op.timer = pt
	} else {
		// Re-arm (retry or second round): the entry may still be linked at
		// its old position; the new deadline belongs at the tail.
		p.unlinkTimerLocked(pt)
	}
	pt.op = op
	pt.attempt = op.o.attempts
	pt.deadline = time.Since(p.epoch) + p.opTimeout
	pt.prev = p.ttail
	if p.ttail != nil {
		p.ttail.next = pt
	} else {
		p.thead = pt
	}
	p.ttail = pt
	if !p.expiryArmed {
		p.expiryArmed = true
		if p.expiry == nil {
			live := new(atomic.Pointer[Pipeline])
			live.Store(p)
			p.live = live
			p.expiry = time.AfterFunc(p.opTimeout, func() {
				if p := live.Load(); p != nil {
					p.expire()
				}
			})
		} else {
			p.expiry.Reset(p.opTimeout)
		}
	}
}

// unlinkTimerLocked removes an entry from the deadline list; a no-op if the
// entry is not linked. Unlinked entries have nil prev/next and are not the
// head.
func (p *Pipeline) unlinkTimerLocked(pt *pipeTimer) {
	if pt.prev != nil {
		pt.prev.next = pt.next
	} else if p.thead == pt {
		p.thead = pt.next
	} else {
		return // not linked
	}
	if pt.next != nil {
		pt.next.prev = pt.prev
	} else {
		p.ttail = pt.prev
	}
	pt.prev, pt.next = nil, nil
}

// releaseTimerLocked unlinks a finished operation's deadline entry and
// returns it to the free list. The runtime timer is deliberately left
// alone: a wake scheduled for this entry's deadline finds a later head (or
// none) and re-arms, so completions pay two pointer writes instead of a
// timer-heap Stop.
func (p *Pipeline) releaseTimerLocked(op *PendingOp) {
	pt := op.timer
	if pt == nil {
		return
	}
	op.timer = nil
	p.unlinkTimerLocked(pt)
	pt.op = nil
	if len(p.tfree) < tfreeMax {
		p.tfree = append(p.tfree, pt)
	}
}

// expire is the shared runtime timer's callback: pop every head entry whose
// deadline has passed, re-arm for the new head (or stand down if the list
// emptied), then run the timeout path for each popped operation outside the
// lock. Expired entries stay owned by their operation (op.timer) — onTimeout
// re-validates (op, attempt) under the lock and a re-arm re-links the
// entry — so a completion racing the wake degrades to a no-op, exactly like
// the old per-operation timer's stale fire.
func (p *Pipeline) expire() {
	now := time.Since(p.epoch)
	var ops []*PendingOp
	var attempts []int32
	p.mu.Lock()
	for pt := p.thead; pt != nil && pt.deadline <= now; pt = p.thead {
		p.unlinkTimerLocked(pt)
		ops = append(ops, pt.op)
		attempts = append(attempts, pt.attempt)
	}
	if p.thead != nil {
		p.expiry.Reset(p.thead.deadline - now)
	} else {
		p.expiryArmed = false
	}
	p.mu.Unlock()
	for i, op := range ops {
		p.onTimeout(op, attempts[i])
	}
}

// onTimeout is an operation's deadline expiring with members still silent.
// On a fault-aware pipeline it suspects exactly those members, and then the
// Operation spends one unit of retry budget and replaces them within the
// attempt — replies already collected stay, and operations started from now
// on pick around the suspects, so a silent server costs the operations in
// flight when it went silent one deadline and later ones nothing. Otherwise,
// or when a silent member has no replacement left, the operation is re-issued
// on a freshly picked quorum (the paper's availability mechanism: a
// probabilistic quorum client depends on no particular quorum) and the stale
// session's operation id leaves the in-flight map, so late replies to it are
// ignored.
func (p *Pipeline) onTimeout(op *PendingOp, attempt int32) {
	p.mu.Lock()
	if op.finished || op.o.attempts != attempt || p.closed {
		p.mu.Unlock()
		return
	}
	f := op.o.current()
	aware := p.engine.FaultAware()
	for i, srv := range f.Quorum {
		if !f.Pending(i) {
			continue
		}
		if p.counters != nil {
			p.counters.Timeouts.Inc()
		}
		if aware {
			// Every silent member is suspected before any is replaced, so
			// none of them is drawn as another's replacement.
			p.suspect(srv, errSilent)
		}
	}
	sends := getSends()
	prev := op.o.currentID()
	p.lapLocked(op, op.waitLap())
	var repicked bool
	var err error
	*sends, repicked, err = op.o.expire(*sends)
	var failed *PendingOp
	switch {
	case err != nil:
		failed = p.failLocked(op, op.unavailable(), sends)
	case repicked:
		p.retriedLocked()
		p.refannedLocked(op, prev)
	default:
		p.retriedLocked()
		p.countTopUps(len(*sends))
		p.armTimerLocked(op)
	}
	p.mu.Unlock()
	p.dispatch(*sends)
	putSends(sends)
	if failed != nil {
		p.signal(failed)
	}
}

// errSilent is the cause recorded for a server suspected because it stayed
// silent past an operation deadline.
var errSilent = errors.New("register: no reply within the operation deadline")

// unavailable is the error of an operation whose retry budget ran out,
// naming the last member loss it could not replace, if any.
func (op *PendingOp) unavailable() error {
	if op.err != nil {
		return fmt.Errorf("%s reg %d: %w after %d attempts (last: %v)",
			op.o.Desc(), op.o.reg, ErrQuorumUnavailable, op.o.attempts, op.err)
	}
	return fmt.Errorf("%s reg %d: %w after %d attempts", op.o.Desc(), op.o.reg, ErrQuorumUnavailable, op.o.attempts)
}

// retriedLocked counts one attempt that spent retry budget.
func (p *Pipeline) retriedLocked() {
	p.retried.Add(1)
	if p.counters != nil {
		p.counters.Retries.Inc()
	}
}

func (p *Pipeline) countTopUps(n int) {
	if p.counters != nil && n > 0 {
		p.counters.TopUps.Add(int64(n))
	}
}

// refannedLocked follows a re-pick of op's current round: the abandoned
// attempt's operation id, prev, leaves the in-flight map for the fresh one,
// the pick is lapped, and the deadline restarts.
func (p *Pipeline) refannedLocked(op *PendingOp, prev msg.OpID) {
	delete(p.inflight, prev)
	p.inflight[op.o.currentID()] = op
	p.lapLocked(op, &op.pickDur)
	p.armTimerLocked(op)
}

// suspect marks server suspected in the shared table, counting it if that is
// news.
func (p *Pipeline) suspect(server int, cause error) {
	if p.health.Suspect(server, cause) && p.counters != nil {
		p.counters.Suspicions.Inc()
	}
}

// heard notes a reply from server: any reply is proof of life and lifts a
// suspicion. On a healthy run it is the one atomic load of Any.
func (p *Pipeline) heard(server int) {
	if p.health.Any() {
		p.health.Clear(server)
	}
}

// memberLost is the transport saying that whatever was in flight to server
// is lost (its connection died, or a request could not be handed to it).
// On a fault-aware engine the server is suspected, so picks avoid it until a
// reply — in practice a probe's — clears the mark, and every operation still
// waiting on it replaces it within its attempt (Operation.topUp): one extra
// round trip, no retry budget (a crash signal is not a timeout), the
// deadline untouched. Each replacement is drawn from the servers neither in
// the attempt nor suspected, and every loss suspects one more server, so an
// attempt is topped up at most n−k times. A replaced member that was in fact
// alive answers into the void (Replace).
//
// An operation that cannot replace the member — the engine is not
// fault-aware, or no candidate is left — waits for its deadline; without
// one, it fails with the member's error.
func (p *Pipeline) memberLost(server int, cause error) {
	sends := getSends()
	var failed []*PendingOp
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		putSends(sends)
		return
	}
	if p.engine.FaultAware() {
		p.suspect(server, cause)
	}
	for id, op := range p.inflight {
		// An atomic read in its write-back is in the map under both its
		// sessions' ids; it is topped up once, under the current round's.
		if id != op.o.currentID() {
			continue
		}
		n := len(*sends)
		var ok bool
		if *sends, ok = op.o.topUp(server, *sends); ok {
			p.countTopUps(len(*sends) - n)
			continue
		}
		op.err = fmt.Errorf("server %d: %w", server, cause)
		if p.opTimeout <= 0 {
			failed = append(failed, op)
		}
	}
	for _, op := range failed {
		p.failLocked(op, fmt.Errorf("%s reg %d: %w", op.o.Desc(), op.o.reg, op.err), sends)
	}
	p.mu.Unlock()
	p.dispatch(*sends)
	putSends(sends)
	for _, op := range failed {
		p.signal(op)
	}
}

// Deliver feeds one server's message into the pipeline. Replies are matched
// to operations by id; duplicates, messages for abandoned attempts, and
// non-protocol payloads are ignored, so transports may deliver anything they
// receive. It is safe for concurrent use.
func (p *Pipeline) Deliver(server int, payload any) {
	switch m := payload.(type) {
	case msg.ReadReply:
		p.ReadReply(server, m)
	case msg.WriteAck:
		p.WriteAck(server, m)
	case msg.StaleEpoch:
		p.StaleEpoch(server, m)
	}
}

// ReadReply feeds one concrete read reply into the pipeline — a leg of the
// boxed Deliver.
func (p *Pipeline) ReadReply(server int, m msg.ReadReply) {
	p.heard(server)
	var sends []Send
	p.mu.Lock()
	ended := p.readReplyLocked(server, m, &sends)
	p.mu.Unlock()
	p.settle(sends, ended)
}

// WriteAck feeds one concrete write acknowledgement into the pipeline — a
// leg of the boxed Deliver.
func (p *Pipeline) WriteAck(server int, m msg.WriteAck) {
	p.heard(server)
	var sends []Send
	p.mu.Lock()
	ended := p.writeAckLocked(server, m, &sends)
	p.mu.Unlock()
	p.settle(sends, ended)
}

// settle is the outside-the-lock half of a one-reply delivery: it hands the
// reply's follow-up sends to the transport and signals the operation the
// reply ended, if any.
func (p *Pipeline) settle(sends []Send, ended *PendingOp) {
	p.dispatch(sends)
	if ended != nil {
		p.signal(ended)
	}
}

// readReplyLocked applies one read reply under p.mu, returning the
// operation it ended (nil when the reply was late, a duplicate, or merely
// brought its quorum one step closer). At most one operation can end per
// reply — the one the reply's op id addresses.
func (p *Pipeline) readReplyLocked(server int, m msg.ReadReply, sends *[]Send) *PendingOp {
	op := p.inflight[m.Op]
	if op == nil {
		// Late reply to an abandoned or completed attempt: dropped by
		// op-id, observable through StaleDrops.
		p.staleDrop()
		return nil
	}
	// A read reply to an operation already in its second round is a
	// slow-but-healthy replica answering the completed first round: a
	// harmless duplicate the Operation ignores, not a stale drop.
	first := !op.o.secondRound()
	*sends = op.o.DeliverReadReply(server, m, *sends)
	switch {
	case op.o.Done():
		// Any sends so far include a repaired read's fire-and-forget repairs.
		return p.completeLocked(op, sends)
	case op.o.Rejected():
		// The masking vote count outvoted the attempt: draw a fresh quorum,
		// spending budget like a deadline would.
		prev := op.o.currentID()
		p.lapLocked(op, op.waitLap())
		var err error
		if *sends, err = op.o.Retry(*sends); err != nil {
			return p.failLocked(op, op.unavailable(), sends)
		}
		p.retriedLocked()
		p.refannedLocked(op, prev)
	case first && op.o.secondRound():
		// The second round began (an atomic read's write-back, a
		// multi-writer write's write phase). The first round's id stays in
		// the map, so a slow replica's late read reply drains as a
		// duplicate; a multi-writer write is traced, as a write, from here,
		// and the deadline restarts.
		p.lapLocked(op, &op.waitDur)
		p.inflight[op.o.currentID()] = op
		if op.o.kind == opWriteMulti {
			p.traceWriteLocked(op)
		}
		p.armTimerLocked(op)
	}
	return nil
}

// writeAckLocked applies one write acknowledgement under p.mu, returning
// the operation it completed (nil when the ack was late, a duplicate, or
// merely brought its quorum one step closer).
func (p *Pipeline) writeAckLocked(server int, m msg.WriteAck, sends *[]Send) *PendingOp {
	op := p.inflight[m.Op]
	if op == nil {
		p.staleDrop()
		return nil
	}
	op.o.DeliverWriteAck(server, m)
	if !op.o.Done() {
		return nil
	}
	return p.completeLocked(op, sends)
}

func (p *Pipeline) staleDrop() {
	if p.counters != nil {
		p.counters.StaleDrops.Inc()
	}
}

// doneOpsPool recycles the completed-operation scratch ReplyBatch collects
// into, so the batched delivery path allocates nothing per frame.
var doneOpsPool = sync.Pool{New: func() any { s := make([]*PendingOp, 0, 16); return &s }}

// ReplyBatch feeds one server frame's worth of concrete replies into the
// pipeline under a single lock acquisition — the unboxed counterpart of
// Deliver (transport.ReplySink). It is semantically identical to calling
// ReadReply and WriteAck once per element; the point is cost: a frame the
// server coalesced from dozens of pipelined replies takes
// one mutex round trip here instead of one per element, which is where a
// deeply pipelined client otherwise spends its receive path. Done-channel
// closes and completion callbacks still run after the lock is dropped, in
// element order, exactly as on the per-element path.
func (p *Pipeline) ReplyBatch(server int, reads []msg.ReadReply, acks []msg.WriteAck) {
	p.heard(server)
	sends := getSends()
	done := doneOpsPool.Get().(*[]*PendingOp)
	p.mu.Lock()
	for _, m := range reads {
		if op := p.readReplyLocked(server, m, sends); op != nil {
			*done = append(*done, op)
		}
	}
	for _, m := range acks {
		if op := p.writeAckLocked(server, m, sends); op != nil {
			*done = append(*done, op)
		}
	}
	p.mu.Unlock()
	p.dispatch(*sends)
	for i, op := range *done {
		p.signal(op)
		(*done)[i] = nil
	}
	putSends(sends)
	*done = (*done)[:0]
	doneOpsPool.Put(done)
}

// StaleEpoch handles a replica's stale-epoch reject: adopt the newer view it
// carries, then re-fan the rejected operation's current round against a
// quorum of the new view — without spending retry budget, so an arbitrarily
// long reconfiguration cannot exhaust an operation. Rejects for attempts the
// pipeline already abandoned drain as stale drops like any late reply.
func (p *Pipeline) StaleEpoch(server int, m msg.StaleEpoch) {
	p.heard(server)
	sends := getSends()
	p.mu.Lock()
	op := p.inflight[m.Op]
	if op == nil || !op.o.DeliverStaleEpoch(server, m) {
		p.staleDrop()
		p.mu.Unlock()
		putSends(sends)
		return
	}
	adopted := p.engine.AdoptView(m.View)
	if adopted && p.counters != nil {
		p.counters.ViewAdopts.Inc()
	}
	prev := op.o.currentID()
	p.lapLocked(op, op.waitLap())
	*sends = op.o.RetryView(*sends)
	p.refannedLocked(op, prev)
	p.mu.Unlock()
	if adopted && p.tr != nil {
		// Re-target the transport before the re-fanned requests go out: a
		// grown view's new server indices must be dialable by the time the
		// re-pick can select them. Update is idempotent by epoch, so shards
		// sharing one transport race benignly.
		_, _ = transport.Update(p.tr, m.View)
	}
	p.dispatch(*sends)
	putSends(sends)
}

// completeLocked ends op successfully and starts the next operation on its
// register; the caller signals the returned op after unlocking.
func (p *Pipeline) completeLocked(op *PendingOp, sends *[]Send) *PendingOp {
	p.finishLocked(op, op.o.result, nil)
	p.advanceQueueLocked(op.o.reg, sends)
	return op
}

// failLocked ends op with err and starts the next operation on its
// register; the caller signals the returned op after unlocking.
func (p *Pipeline) failLocked(op *PendingOp, err error, sends *[]Send) *PendingOp {
	p.finishLocked(op, msg.Tagged{}, err)
	p.advanceQueueLocked(op.o.reg, sends)
	return op
}

// finishLocked records the operation's terminal state and removes it from
// the in-flight map.
func (p *Pipeline) finishLocked(op *PendingOp, tag msg.Tagged, err error) {
	op.finished = true
	op.o.result, op.err = tag, err
	p.releaseTimerLocked(op)
	if err == nil {
		p.lapLocked(op, op.waitLap())
	}
	// With the in-flight entries gone no reply can reach the sessions again,
	// so their storage goes back to the engine for the next Begin* to reuse.
	if rs := op.o.rs; rs != nil {
		delete(p.inflight, rs.Op)
		p.engine.ReleaseRead(rs)
		op.o.rs = nil
	}
	if ws := op.o.ws; ws != nil {
		delete(p.inflight, ws.Op)
		p.engine.ReleaseWrite(ws)
		op.o.ws = nil
	}
	if p.log != nil && err == nil {
		respond := p.clock()
		switch op.o.kind {
		case opRead, opAtomicRead:
			p.log.Record(trace.Op{
				Kind: trace.KindRead, Proc: p.proc, Reg: op.o.reg,
				Invoke: op.invoke, Respond: respond, Tag: tag,
			})
		default:
			p.log.Complete(op.wsHandle, respond)
		}
	}
	if p.gauge != nil {
		p.gauge.Dec()
	}
}

// advanceQueueLocked pops the completed head of a register's FIFO queue and
// starts the next waiting operation, preserving per-client per-register
// order.
func (p *Pipeline) advanceQueueLocked(reg msg.RegisterID, sends *[]Send) {
	q := p.queues[reg]
	if q == nil || q.head >= len(q.ops) {
		return
	}
	q.ops[q.head] = nil
	q.head++
	if q.head == len(q.ops) {
		delete(p.queues, reg)
		p.putQueueLocked(q)
		return
	}
	p.startLocked(q.ops[q.head], sends)
}

func (p *Pipeline) dispatch(sends []Send) {
	if p.obsv != nil && len(sends) > 0 && p.fanSeq.Add(1)&7 == 0 {
		// FanOut times the hand-off to the transport, sampled one dispatch
		// in eight: the hand-off span's distribution is what matters (a
		// stalling transport shows up within a few dispatches either way),
		// and sampling keeps two clock reads off the per-operation path.
		// It overlaps the operations' QuorumWait rather than preceding it.
		start := time.Since(p.epoch)
		for _, s := range sends {
			p.send(s.Server, s.Req)
		}
		p.obsv.FanOut.Observe(time.Since(p.epoch) - start)
		return
	}
	for _, s := range sends {
		p.send(s.Server, s.Req)
	}
}

// signal completes an operation towards its waiters: closes its done channel
// and invokes its callback — all outside the pipeline lock, so callbacks may
// submit follow-up operations. The retry timer was already released (under
// the lock) by finishLocked.
func (p *Pipeline) signal(op *PendingOp) {
	if p.obsv != nil && op.err == nil {
		if op.o.fast {
			p.obsv.FastReads.Inc()
		}
		if op.started > 0 {
			// Observed here, not in finishLocked: the pipeline lock is the
			// throughput bottleneck under load, so the histogram updates
			// happen after it is released. Each phase entry is a
			// per-operation total (retries fold into it), and the laps
			// are contiguous from start of service to completion, so
			// Pick + QuorumWait + WriteBack is Ops exactly.
			p.obsv.Pick.Observe(op.pickDur)
			p.obsv.QuorumWait.Observe(op.waitDur)
			if op.wbDur > 0 {
				p.obsv.WriteBack.Observe(op.wbDur)
			}
			p.obsv.Ops.Observe(op.pickDur + op.waitDur + op.wbDur)
		}
	}
	op.complete()
	if op.callback != nil {
		op.callback(op.o.result, op.err)
	}
}

// Close fails every pending and queued operation with err (defaulting to
// ErrPipelineClosed), makes further submissions fail immediately, and stops
// the deadline timer, so a closed pipeline is collectable at once. It does
// not touch the transport; callers close that separately.
func (p *Pipeline) Close(err error) {
	if err == nil {
		err = ErrPipelineClosed
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.closeErr = err
	var victims []*PendingOp
	for _, q := range p.queues {
		for _, op := range q.ops[q.head:] {
			if !op.finished {
				op.finished = true
				op.o.result, op.err = msg.Tagged{}, err
				p.releaseTimerLocked(op)
				if p.gauge != nil {
					p.gauge.Dec()
				}
				victims = append(victims, op)
			}
		}
	}
	p.inflight = make(map[msg.OpID]*PendingOp)
	p.queues = make(map[msg.RegisterID]*regQueue)
	// Release what the pipeline held for operations to come. The runtime
	// timer is cut loose too (see live): left armed it would keep the
	// pipeline, the engine and the transport reachable until it fires, an
	// OpTimeout after the last arm. A fire already past Stop finds an empty
	// list and stands down.
	if p.expiry != nil {
		p.expiry.Stop()
		p.live.Store(nil)
	}
	p.thead, p.ttail = nil, nil
	p.qfree, p.tfree = nil, nil
	p.mu.Unlock()
	for _, op := range victims {
		p.signal(op)
	}
}
