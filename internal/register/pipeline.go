package register

import (
	"errors"
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

// Pipeline is a concurrency-safe register client layered on an Engine that
// keeps many operations in flight per process. The paper's model allows one
// pending operation per process, which serializes every quorum round-trip;
// the Pipeline relaxes exactly the part of that discipline that latency-bound
// deployments cannot afford while preserving the guarantees the algorithm's
// correctness actually rests on:
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
//   - All Engine calls are serialized under one mutex, so the Engine's
//     single-caller assertion (opGuard) never trips: session bookkeeping is
//     cheap and local, and only the network fan-outs overlap.
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

// PipelineOption configures a Pipeline.
type PipelineOption func(*Pipeline)

// PipeTrace records every completed operation into log under process
// identity proc. Reads are recorded at completion; writes are recorded at
// start (pending) and completed when acknowledged, so a run that stops with
// writes in flight still validates reads against them.
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

// PipeCounters records fault-path events into tc: deadline expiries that
// spent retry budget (Retries) and the members still silent at them
// (Timeouts), replaced members (TopUps), newly suspected servers
// (Suspicions), shadow probes (Probes), and replies that arrived after their
// operation was abandoned or completed (StaleDrops).
func PipeCounters(tc *metrics.TransportCounters) PipelineOption {
	return func(p *Pipeline) { p.counters = tc }
}

// PipeTimeout arms a per-operation deadline: an operation not complete
// within d has its silent members replaced (a fault-aware pipeline, see
// memberLost) or is abandoned and re-issued on a freshly picked quorum
// (writes keep their timestamp, so duplicate installations converge), either
// of which spends one unit of retry budget. retries caps
// the total attempts per operation at retries+1 (0 = unlimited), the same
// budget arithmetic as the serial client's WithRetries; exhaustion surfaces
// ErrQuorumUnavailable. Without PipeTimeout operations wait forever, which is
// only safe on transports that cannot silently lose messages.
//
// Deadlines use wall-clock timers; do not combine with virtual-time
// runtimes (the simulator runs the Pipeline failure-free instead).
func PipeTimeout(d time.Duration, retries int) PipelineOption {
	return func(p *Pipeline) { p.opTimeout = d; p.retries = retries }
}

// NewPipeline wraps engine for concurrent use, sending requests through
// send. The Pipeline owns the engine from now on: calling Engine methods
// directly while the Pipeline is live trips the engine's concurrency guard.
//
// Masking and read-repair engines are not supported (both assume the serial
// one-op discipline for their retry/write-back decisions).
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

// Retries returns how many operation deadlines expired with retry budget
// left, each answered by a top-up of the silent members or a re-issue on a
// fresh quorum. Top-ups on a transport's error signal are not retries.
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
	attempt    int
	deadline   time.Duration // since p.epoch
	prev, next *pipeTimer
}

// tfreeMax bounds the recycled-timer free list, like qfreeMax for queues.
const tfreeMax = 512

// outMsgPool recycles the fan-out buffers submit hands to dispatch: each
// submission needs one for the duration of the call (built under the
// pipeline lock, drained outside it, so concurrent submitters cannot share
// a per-pipeline buffer), it holds a handful of sends, and the call rate is
// the pipeline's throughput — exactly the sync.Pool shape. Buffers are
// cleared before returning so no request outlives its dispatch.
var outMsgPool = sync.Pool{New: func() any { s := make([]outMsg, 0, 16); return &s }}

type opKind int

const (
	opRead opKind = iota + 1
	opWrite
)

// PendingOp is one submitted pipeline operation. Wait blocks until it
// completes; Done exposes the completion signal for select loops.
type PendingOp struct {
	kind opKind
	reg  msg.RegisterID
	val  msg.Value

	rs       *ReadSession
	ws       *WriteSession
	invoke   int64
	wsHandle int
	attempt  int
	timer    *pipeTimer
	finished bool
	// wback marks an atomic read that has transitioned into its write-back
	// phase; fast marks one that completed without needing it (unanimous
	// quorum — see Engine.TryFinishReadFast).
	wback bool
	fast  bool

	// started/phaseMark are clock marks for the pipeline's observer,
	// expressed as monotonic offsets from the pipeline's epoch; both stay
	// zero (and cost nothing) when no observer is attached. The phase
	// durations accumulate under the pipeline lock but are observed into
	// the histograms by signal, outside it — the observer must not
	// lengthen the pipeline's critical section.
	started   time.Duration
	phaseMark time.Duration
	pickDur   time.Duration
	waitDur   time.Duration
	wbDur     time.Duration
	opsDur    time.Duration

	// Completion is a lazy-channel protocol: most waiters arrive after the
	// operation already completed (deep pipelines Wait in submission order),
	// so the common case is a flag check under cmu and no channel ever
	// exists — one fewer allocation per operation. done is created on demand
	// by the first Done/Wait that beats completion.
	cmu       sync.Mutex
	done      chan struct{}
	completed bool
	callback  func(msg.Tagged, error)
	tag       msg.Tagged
	err       error
}

// Reg returns the register the operation addresses.
func (o *PendingOp) Reg() msg.RegisterID { return o.reg }

// Done returns a channel closed when the operation completes.
func (o *PendingOp) Done() <-chan struct{} {
	o.cmu.Lock()
	defer o.cmu.Unlock()
	if o.done == nil {
		o.done = make(chan struct{})
		if o.completed {
			close(o.done)
		}
	}
	return o.done
}

// Wait blocks until the operation completes and returns its result: the
// tagged value read (reads) or written (writes), and the terminal error if
// the operation failed.
func (o *PendingOp) Wait() (msg.Tagged, error) {
	o.cmu.Lock()
	if o.completed {
		o.cmu.Unlock()
		return o.tag, o.err
	}
	if o.done == nil {
		o.done = make(chan struct{})
	}
	done := o.done
	o.cmu.Unlock()
	<-done
	return o.tag, o.err
}

// complete publishes the operation's terminal state (tag/err were written
// before the call) and wakes any waiter parked on the lazy done channel.
func (o *PendingOp) complete() {
	o.cmu.Lock()
	o.completed = true
	if o.done != nil {
		close(o.done)
	}
	o.cmu.Unlock()
}

// outMsg is a request captured under the pipeline lock and sent after it is
// released, so a transport (or the simulator) may call back into the
// Pipeline from Send without deadlocking.
type outMsg struct {
	server int
	req    any
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

func (p *Pipeline) submit(kind opKind, reg msg.RegisterID, val msg.Value, fn func(msg.Tagged, error)) *PendingOp {
	op := &PendingOp{kind: kind, reg: reg, val: val, callback: fn}
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
	sends := outMsgPool.Get().(*[]outMsg)
	if len(q.ops)-q.head == 1 {
		p.startLocked(op, sends)
	}
	p.mu.Unlock()
	p.dispatch(*sends)
	clear(*sends)
	*sends = (*sends)[:0]
	outMsgPool.Put(sends)
	return op
}

// startLocked begins the head-of-queue operation: it opens the engine
// session (assigning the operation id and, for writes, the timestamp — so
// same-register timestamps are assigned in client FIFO order), registers the
// operation in the in-flight map, and captures the quorum fan-out.
func (p *Pipeline) startLocked(op *PendingOp, sends *[]outMsg) {
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
	switch op.kind {
	case opRead, opAtomicRead:
		op.rs = p.engine.BeginRead(op.reg)
		p.inflight[op.rs.Op] = op
		// Box the request once: the concrete ReadReq goes into an interface
		// here, not per quorum member inside the append below.
		req := any(op.rs.Request())
		for _, srv := range op.rs.Quorum {
			*sends = append(*sends, outMsg{server: srv, req: req})
		}
		if p.health.Any() {
			if srv, ok := p.engine.ProbeRead(op.rs); ok {
				*sends = append(*sends, outMsg{server: srv, req: req})
				if p.counters != nil {
					p.counters.Probes.Inc()
				}
			}
		}
	case opWrite:
		op.ws = p.engine.BeginWrite(op.reg, op.val)
		p.inflight[op.ws.Op] = op
		if p.log != nil {
			op.wsHandle = p.log.Begin(trace.Op{
				Kind: trace.KindWrite, Proc: p.proc, Reg: op.reg,
				Invoke: op.invoke, Tag: op.ws.Tag,
			})
		}
		req := any(op.ws.Request())
		for _, srv := range op.ws.Quorum {
			*sends = append(*sends, outMsg{server: srv, req: req})
		}
	}
	p.lapPickLocked(op)
	p.armTimerLocked(op)
}

// lapPickLocked closes op's pick phase (session opened, fan-out captured)
// and starts its wait phase.
func (p *Pipeline) lapPickLocked(op *PendingOp) {
	if p.obsv == nil {
		return
	}
	now := time.Since(p.epoch)
	op.pickDur += now - op.phaseMark
	op.phaseMark = now
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
		// Re-arm (retry or write-back phase): the entry may still be
		// linked at its old position; the new deadline belongs at the tail.
		p.unlinkTimerLocked(pt)
	}
	pt.op = op
	pt.attempt = op.attempt
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
// re-validates (op, attempt) under the lock and reissueLocked re-links the
// entry — so a completion racing the wake degrades to a no-op, exactly like
// the old per-operation timer's stale fire.
func (p *Pipeline) expire() {
	now := time.Since(p.epoch)
	var ops []*PendingOp
	var attempts []int
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
// It spends one unit of retry budget and then, on a fault-aware pipeline,
// suspects exactly those members and replaces them within the attempt —
// replies already collected stay, and operations started from now on pick
// around the suspects, so a silent server costs the operations in flight when
// it went silent one deadline and later ones nothing. Otherwise, or when a
// silent member has no replacement left, the operation is re-issued on a
// freshly picked quorum (the paper's availability mechanism: a probabilistic
// quorum client depends on no particular quorum) and the stale session's
// operation id leaves the in-flight map, so late replies to it are ignored.
func (p *Pipeline) onTimeout(op *PendingOp, attempt int) {
	p.mu.Lock()
	if op.finished || op.attempt != attempt || p.closed {
		p.mu.Unlock()
		return
	}
	f, _ := op.phase()
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
	// op.attempt counts re-issues, so attempt == retries means the budget of
	// retries+1 total attempts is spent — the same arithmetic as the serial
	// Operation.Retry (pinned by TestRetryBudgetArithmetic).
	if p.retries > 0 && op.attempt >= p.retries {
		p.finishLocked(op, msg.Tagged{}, ErrQuorumUnavailable)
		var sends []outMsg
		p.advanceQueueLocked(op.reg, &sends)
		p.mu.Unlock()
		p.dispatch(sends)
		p.signal(op)
		return
	}
	p.retried.Add(1)
	if p.counters != nil {
		p.counters.Retries.Inc()
	}
	op.attempt++
	var sends []outMsg
	if aware && p.topUpLocked(op, -1, &sends) {
		p.armTimerLocked(op)
	} else {
		sends = sends[:0]
		p.reissueLocked(op, &sends)
	}
	p.mu.Unlock()
	p.dispatch(sends)
}

// errSilent is the cause recorded for a server suspected because it stayed
// silent past an operation deadline.
var errSilent = errors.New("register: no reply within the operation deadline")

// writing reports whether op's current phase is a write session: a write, or
// an atomic read in its write-back.
func (op *PendingOp) writing() bool { return op.kind == opWrite || op.wback }

// phase returns the membership half of op's current-phase session and the
// operation id its requests carry.
func (op *PendingOp) phase() (*fanout, msg.OpID) {
	if op.writing() {
		return &op.ws.fanout, op.ws.Op
	}
	return &op.rs.fanout, op.rs.Op
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
// The server is suspected, so picks avoid it until a reply — in practice a
// probe's — clears the mark, and every operation still waiting on it
// replaces it within its attempt: one extra round trip, no retry budget (a
// crash signal is not a timeout), the deadline untouched. Each replacement is
// drawn from the servers neither in the attempt nor suspected, and every loss
// suspects one more server, so an attempt is topped up at most n−k times;
// with no candidate left it falls back to the deadline. A replaced member
// that was in fact alive answers into the void (Replace).
func (p *Pipeline) memberLost(server int, cause error) {
	var sends []outMsg
	p.mu.Lock()
	if p.closed || !p.engine.FaultAware() {
		p.mu.Unlock()
		return
	}
	p.suspect(server, cause)
	for id, op := range p.inflight {
		// An atomic read in its write-back is in the map under both its
		// sessions' ids; it is topped up once, under the current phase's.
		if _, cur := op.phase(); cur == id {
			p.topUpLocked(op, server, &sends)
		}
	}
	p.mu.Unlock()
	p.dispatch(sends)
}

// topUpLocked replaces the pending members of op's current phase that are
// lost — server, or with server < 0 every pending member — capturing the
// re-sent requests, and reports whether each of them found a replacement.
func (p *Pipeline) topUpLocked(op *PendingOp, server int, sends *[]outMsg) bool {
	f, _ := op.phase()
	var req any
	for i, srv := range f.Quorum {
		if !f.Pending(i) || (server >= 0 && srv != server) {
			continue
		}
		repl, ok := p.engine.topUp(f, i)
		if !ok {
			return false
		}
		if req == nil {
			// Boxed once per operation, like the first fan-out's.
			if op.writing() {
				req = op.ws.Request()
			} else {
				req = op.rs.Request()
			}
		}
		*sends = append(*sends, outMsg{server: repl, req: req})
		if p.counters != nil {
			p.counters.TopUps.Inc()
		}
	}
	return true
}

// reissueLocked re-fans an in-flight operation's current phase on a freshly
// picked quorum (stamped with the engine's current epoch). It does not touch
// the attempt counter — the caller decides whether the re-issue spends retry
// budget (a timeout does; a stale-epoch reject does not, because
// reconfiguration is not a fault).
func (p *Pipeline) reissueLocked(op *PendingOp, sends *[]outMsg) {
	if p.obsv != nil {
		// The abandoned attempt's wait ends here; the re-pick below is a
		// fresh pick lap.
		now := time.Since(p.epoch)
		if op.wback {
			op.wbDur += now - op.phaseMark
		} else {
			op.waitDur += now - op.phaseMark
		}
		op.phaseMark = now
	}
	switch {
	case op.writing():
		// A write, or an atomic read stuck in its write-back: re-issue the
		// same tag on a fresh quorum (replicas deduplicate by timestamp).
		// The atomic read's read-phase op id stays in the in-flight map so
		// its late replies keep draining as duplicates, not stale drops.
		delete(p.inflight, op.ws.Op)
		op.ws = p.engine.RetryWrite(op.ws)
		p.inflight[op.ws.Op] = op
		req := any(op.ws.Request())
		for _, srv := range op.ws.Quorum {
			*sends = append(*sends, outMsg{server: srv, req: req})
		}
	default:
		delete(p.inflight, op.rs.Op)
		op.rs = p.engine.RetryRead(op.rs)
		p.inflight[op.rs.Op] = op
		req := any(op.rs.Request())
		for _, srv := range op.rs.Quorum {
			*sends = append(*sends, outMsg{server: srv, req: req})
		}
	}
	p.lapPickLocked(op)
	p.armTimerLocked(op)
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
	var sends []outMsg
	p.mu.Lock()
	completed := p.readReplyLocked(server, m, &sends)
	p.mu.Unlock()
	p.dispatch(sends)
	if completed != nil {
		p.signal(completed)
	}
}

// readReplyLocked applies one read reply under p.mu, returning the
// operation it completed (nil when the reply was late, a duplicate, or
// merely brought its quorum one step closer). At most one operation can
// complete per reply — the one the reply's op id addresses.
func (p *Pipeline) readReplyLocked(server int, m msg.ReadReply, sends *[]outMsg) *PendingOp {
	op := p.inflight[m.Op]
	if op == nil || op.rs == nil {
		// Late reply to an abandoned or completed attempt: dropped by
		// op-id, observable through StaleDrops.
		if p.counters != nil {
			p.counters.StaleDrops.Inc()
		}
		return nil
	}
	if op.wback {
		// A slow-but-healthy replica answering the atomic read's own
		// already-completed read phase: a harmless duplicate of the
		// current attempt, not a stale drop.
		return nil
	}
	if !op.rs.OnReply(server, m) {
		return nil
	}
	switch {
	case op.kind != opAtomicRead:
		tag := p.engine.FinishRead(op.rs)
		p.finishLocked(op, tag, nil)
		p.advanceQueueLocked(op.reg, sends)
		return op
	default:
		if tag, ok := p.engine.TryFinishReadFast(op.rs); ok {
			op.fast = true
			p.finishLocked(op, tag, nil)
			p.advanceQueueLocked(op.reg, sends)
			return op
		}
		p.beginWriteBackLocked(op, p.engine.FinishRead(op.rs), sends)
		return nil
	}
}

// WriteAck feeds one concrete write acknowledgement into the pipeline — a
// leg of the boxed Deliver.
func (p *Pipeline) WriteAck(server int, m msg.WriteAck) {
	p.heard(server)
	var sends []outMsg
	p.mu.Lock()
	completed := p.writeAckLocked(server, m, &sends)
	p.mu.Unlock()
	p.dispatch(sends)
	if completed != nil {
		p.signal(completed)
	}
}

// writeAckLocked applies one write acknowledgement under p.mu, returning
// the operation it completed (nil when the ack was late, a duplicate, or
// merely brought its quorum one step closer).
func (p *Pipeline) writeAckLocked(server int, m msg.WriteAck, sends *[]outMsg) *PendingOp {
	op := p.inflight[m.Op]
	if op == nil || op.ws == nil {
		if p.counters != nil {
			p.counters.StaleDrops.Inc()
		}
		return nil
	}
	if !op.ws.OnAck(server, m) {
		return nil
	}
	p.finishLocked(op, op.ws.Tag, nil)
	p.advanceQueueLocked(op.reg, sends)
	return op
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
	sends := outMsgPool.Get().(*[]outMsg)
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
	clear(*sends)
	*sends = (*sends)[:0]
	outMsgPool.Put(sends)
	*done = (*done)[:0]
	doneOpsPool.Put(done)
}

// StaleEpoch handles a replica's stale-epoch reject: adopt the newer view it
// carries, then re-fan the rejected operation's current phase against a
// quorum of the new view — without spending retry budget, so an arbitrarily
// long reconfiguration cannot exhaust an operation. Rejects for attempts the
// pipeline already abandoned drain as stale drops like any late reply.
func (p *Pipeline) StaleEpoch(server int, m msg.StaleEpoch) {
	p.heard(server)
	var sends []outMsg
	p.mu.Lock()
	op := p.inflight[m.Op]
	if op == nil || op.finished {
		if p.counters != nil {
			p.counters.StaleDrops.Inc()
		}
		p.mu.Unlock()
		return
	}
	adopted := p.engine.AdoptView(m.View)
	if adopted && p.counters != nil {
		p.counters.ViewAdopts.Inc()
	}
	p.reissueLocked(op, &sends)
	p.mu.Unlock()
	if adopted && p.tr != nil {
		// Re-target the transport before the re-fanned requests go out: a
		// grown view's new server indices must be dialable by the time the
		// re-pick can select them. Update is idempotent by epoch, so shards
		// sharing one transport race benignly.
		_, _ = transport.Update(p.tr, m.View)
	}
	p.dispatch(sends)
}

// beginWriteBackLocked transitions an atomic read whose quorum disagreed
// into its awaited write-back phase: the result is installed on a freshly
// picked quorum before the operation completes (ABD). The read phase's op id
// stays in the in-flight map so a slow replica's late read reply drains as a
// duplicate instead of a stale drop.
func (p *Pipeline) beginWriteBackLocked(op *PendingOp, tag msg.Tagged, sends *[]outMsg) {
	op.wback = true
	if p.obsv != nil {
		// The read phase's wait ends at the transition; from here on the
		// clock accumulates into the WriteBack lap.
		now := time.Since(p.epoch)
		op.waitDur += now - op.phaseMark
		op.phaseMark = now
	}
	op.ws = p.engine.BeginWriteWithTS(op.reg, tag)
	p.inflight[op.ws.Op] = op
	req := any(op.ws.Request())
	for _, srv := range op.ws.Quorum {
		*sends = append(*sends, outMsg{server: srv, req: req})
	}
	// Restart the attempt deadline for the new phase (Reset reschedules the
	// pooled timer); a read-phase expiry already dispatched and blocked on
	// the lock retries the write-back on a fresh quorum, which is benign.
	p.armTimerLocked(op)
}

// finishLocked records the operation's terminal state and removes it from
// the in-flight map. The caller signals the operation after unlocking.
func (p *Pipeline) finishLocked(op *PendingOp, tag msg.Tagged, err error) {
	op.finished = true
	op.tag, op.err = tag, err
	p.releaseTimerLocked(op)
	if p.obsv != nil && err == nil && op.started > 0 {
		now := time.Since(p.epoch)
		if op.wback {
			op.wbDur += now - op.phaseMark
		} else {
			op.waitDur += now - op.phaseMark
		}
		op.opsDur = now - op.started
	}
	// With the in-flight entries gone no reply can reach the sessions again,
	// so their storage goes back to the engine for the next Begin* to reuse.
	if op.rs != nil {
		delete(p.inflight, op.rs.Op)
		p.engine.ReleaseRead(op.rs)
		op.rs = nil
	}
	if op.ws != nil {
		delete(p.inflight, op.ws.Op)
		p.engine.ReleaseWrite(op.ws)
		op.ws = nil
	}
	if p.log != nil {
		respond := p.clock()
		switch op.kind {
		case opRead, opAtomicRead:
			if err == nil {
				p.log.Record(trace.Op{
					Kind: trace.KindRead, Proc: p.proc, Reg: op.reg,
					Invoke: op.invoke, Respond: respond, Tag: tag,
				})
			}
		case opWrite:
			if err == nil {
				p.log.Complete(op.wsHandle, respond)
			}
		}
	}
	if p.gauge != nil {
		p.gauge.Dec()
	}
}

// advanceQueueLocked pops the completed head of a register's FIFO queue and
// starts the next waiting operation, preserving per-client per-register
// order.
func (p *Pipeline) advanceQueueLocked(reg msg.RegisterID, sends *[]outMsg) {
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

func (p *Pipeline) dispatch(sends []outMsg) {
	if p.obsv != nil && len(sends) > 0 && p.fanSeq.Add(1)&7 == 0 {
		// FanOut times the hand-off to the transport, sampled one dispatch
		// in eight: the hand-off span's distribution is what matters (a
		// stalling transport shows up within a few dispatches either way),
		// and sampling keeps two clock reads off the per-operation path.
		// It overlaps the operations' QuorumWait rather than preceding it.
		start := time.Since(p.epoch)
		for _, s := range sends {
			p.send(s.server, s.req)
		}
		p.obsv.FanOut.Observe(time.Since(p.epoch) - start)
		return
	}
	for _, s := range sends {
		p.send(s.server, s.req)
	}
}

// signal completes an operation towards its waiters: closes its done channel
// and invokes its callback — all outside the pipeline lock, so callbacks may
// submit follow-up operations. The retry timer was already released (under
// the lock) by finishLocked.
func (p *Pipeline) signal(op *PendingOp) {
	if p.obsv != nil && op.err == nil {
		if op.fast {
			p.obsv.FastReads.Inc()
		}
		if op.opsDur > 0 {
			// Observed here, not in finishLocked: the pipeline lock is the
			// throughput bottleneck under load, so the histogram updates
			// happen after it is released. Each phase entry is a
			// per-operation total (retries fold into it), so Pick +
			// QuorumWait telescopes to Ops exactly for single-phase
			// operations; an atomic read's write-back round lands in its own
			// WriteBack entry on top.
			p.obsv.Pick.Observe(op.pickDur)
			p.obsv.QuorumWait.Observe(op.waitDur)
			if op.wbDur > 0 {
				p.obsv.WriteBack.Observe(op.wbDur)
			}
			p.obsv.Ops.Observe(op.opsDur)
		}
	}
	op.complete()
	if op.callback != nil {
		op.callback(op.tag, op.err)
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
				op.tag, op.err = msg.Tagged{}, err
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
