package register

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"probquorum/internal/metrics"
	"probquorum/internal/msg"
	"probquorum/internal/quorum"
	"probquorum/internal/trace"
	"probquorum/internal/transport"
)

// Client is the serial (blocking, one-operation-at-a-time) register client:
// the single implementation of the pick-quorum → fan-out → collect →
// retry-on-fresh-quorum loop, shared by every transport. The cluster and TCP
// clients are thin adapters that construct one of these over their
// respective Transports; the simulator drives the same Operation state
// machine directly (it has no blocking goroutine to park).
//
// A Client runs one operation at a time (the Engine enforces it); use
// Pipeline for overlapping operations.
type Client struct {
	e  *Engine
	tr transport.Transport

	// opTimeout bounds one attempt's wait for replies; 0 means strict mode:
	// no deadline, and any transport failure from a quorum member fails the
	// operation immediately instead of triggering a retry.
	opTimeout time.Duration
	// retries caps the total attempts at retries+1 when opTimeout is set
	// (0 = unlimited).
	retries     int
	backoffBase time.Duration
	backoffMax  time.Duration

	counters *metrics.TransportCounters
	log      *trace.Log
	proc     msg.NodeID
	clock    func() int64
	latency  *metrics.LatencyHist
	obsv     *Observer

	mu     sync.Mutex
	queue  []inEvent
	notify chan struct{}

	fatalOnce sync.Once
	fatalc    chan struct{}
	fatalErr  error
}

// inEvent is one inbound delivery from the transport, queued by the sink
// until the operation loop pops it. Reply kinds arriving through the
// concrete transport.ReplySink path are stored inline under their own tag
// instead of boxed through payload, so the TCP binary read loop's
// zero-boxing delivery survives the queue hop.
type inEvent struct {
	kind   evKind
	server int
	read   msg.ReadReply
	ack    msg.WriteAck
	stale  msg.StaleEpoch
	// payload and err serve the boxed Sink path: foreign payloads from
	// transports without a ReplyBinder seam, and per-server errors.
	payload any
	err     error
}

type evKind uint8

const (
	evBoxed evKind = iota
	evReadReply
	evWriteAck
	evStaleEpoch
)

// ClientOption configures a Client.
type ClientOption func(*Client)

// WithOpTimeout bounds each attempt: an attempt that has not completed
// within d is abandoned and retried on a freshly picked quorum. Without it
// the client runs in strict mode — it waits forever for replies and fails
// the operation on the first transport error from a quorum member.
func WithOpTimeout(d time.Duration) ClientOption {
	return func(c *Client) { c.opTimeout = d }
}

// WithRetries caps the attempts per operation at n+1 when WithOpTimeout is
// set (0 = unlimited). Exhaustion surfaces ErrQuorumUnavailable.
func WithRetries(n int) ClientOption {
	return func(c *Client) { c.retries = n }
}

// WithRetryBackoff sleeps before each retry: base doubled per attempt,
// capped at max. Zero base disables backoff.
func WithRetryBackoff(base, max time.Duration) ClientOption {
	return func(c *Client) { c.backoffBase = base; c.backoffMax = max }
}

// WithTransportCounters records retries into tc. (Message counts attach at
// the transport seam — see transport.Instrument.)
func WithTransportCounters(tc *metrics.TransportCounters) ClientOption {
	return func(c *Client) { c.counters = tc }
}

// WithTrace records every completed operation into log under process id
// proc.
func WithTrace(log *trace.Log, proc msg.NodeID) ClientOption {
	return func(c *Client) { c.log = log; c.proc = proc }
}

// WithClock replaces the logical clock stamping trace times; the default is
// a process-global sequence counter.
func WithClock(fn func() int64) ClientOption {
	return func(c *Client) { c.clock = fn }
}

// WithLatency records every operation's wall-clock duration (including
// retries) into h.
func WithLatency(h *metrics.LatencyHist) ClientOption {
	return func(c *Client) { c.latency = h }
}

// NewClient builds a serial register client over tr and binds the
// transport's delivery sink. The caller retains ownership of the transport:
// closing it is the caller's job (adapters do it in their Close methods),
// and after close any blocked operation fails with the transport's terminal
// error.
func NewClient(e *Engine, tr transport.Transport, opts ...ClientOption) *Client {
	c := &Client{
		e:      e,
		tr:     tr,
		notify: make(chan struct{}, 1),
		fatalc: make(chan struct{}),
	}
	for _, o := range opts {
		o(c)
	}
	if c.clock == nil {
		c.clock = nextGlobalTick
	}
	if c.counters == nil {
		c.counters = &metrics.TransportCounters{}
	}
	// The engine's suspicion table: the serial client feeds it (member
	// errors, failed sends, members silent at a deadline) and re-picks avoid
	// the suspects; attempts still restart whole.
	e.health = transport.NewHealth(tr.N())
	tr.Bind(c.sink)
	// When the transport can deliver replies concretely (the TCP binary
	// codec), take them without boxing; errors and foreign payloads still
	// arrive through the boxed sink above.
	transport.BindReplies(tr, c)
	return c
}

// Engine returns the client's register engine.
func (c *Client) Engine() *Engine { return c.e }

// AdoptView switches the client to a newer membership view: the engine's
// quorum systems and epoch stamp move to it, and the transport is re-targeted
// when it supports runtime updates. Reconfigurations normally reach a client
// through StaleEpoch rejects mid-operation (handled inside the operation
// loop); this method is for the client that initiated the reconfiguration —
// it already holds the new view and should not wait to be rejected.
// It reports whether the view was adopted (false when not newer).
func (c *Client) AdoptView(v quorum.View) bool {
	if !c.e.AdoptView(v) {
		return false
	}
	_, _ = transport.Update(c.tr, v)
	return true
}

// sink is the transport's delivery callback. It never blocks: events go
// into an unbounded queue guarded by a mutex, with a buffered notify channel
// to wake the operation loop.
func (c *Client) sink(server int, payload any, err error) {
	if server == transport.Broadcast && err != nil {
		c.fatalOnce.Do(func() {
			c.fatalErr = err
			close(c.fatalc)
		})
		return
	}
	c.push(inEvent{server: server, payload: payload, err: err})
}

// ReplyBatch implements transport.ReplySink: one frame's concretely typed
// replies, queued without boxing.
func (c *Client) ReplyBatch(server int, reads []msg.ReadReply, acks []msg.WriteAck) {
	for _, m := range reads {
		c.push(inEvent{kind: evReadReply, server: server, read: m})
	}
	for _, m := range acks {
		c.push(inEvent{kind: evWriteAck, server: server, ack: m})
	}
}

// StaleEpoch implements transport.ReplySink.
func (c *Client) StaleEpoch(server int, m msg.StaleEpoch) {
	c.push(inEvent{kind: evStaleEpoch, server: server, stale: m})
}

func (c *Client) push(ev inEvent) {
	c.mu.Lock()
	c.queue = append(c.queue, ev)
	c.mu.Unlock()
	select {
	case c.notify <- struct{}{}:
	default:
	}
}

func (c *Client) pop() (inEvent, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.queue) == 0 {
		return inEvent{}, false
	}
	ev := c.queue[0]
	c.queue = c.queue[1:]
	return ev, true
}

// drainStale discards queued error events. Called at the start of each
// attempt: a failure that arrived between operations (or that doomed a
// previous, already-abandoned attempt) must not fail a fresh attempt that
// may not even involve that server.
func (c *Client) drainStale() {
	c.mu.Lock()
	defer c.mu.Unlock()
	kept := c.queue[:0]
	for _, ev := range c.queue {
		if ev.err == nil {
			kept = append(kept, ev)
		}
	}
	c.queue = kept
}

var errAttemptTimeout = fmt.Errorf("attempt timed out")

// fatalError wraps the transport's terminal error so run can distinguish
// "this attempt failed, maybe retry" from "the transport is gone, stop".
type fatalError struct{ err error }

func (f fatalError) Error() string { return f.err.Error() }

func (c *Client) sendAll(sends []Send) error {
	for _, s := range sends {
		if err := c.tr.Send(s.Server, s.Req); err != nil {
			// A send racing a view shrink is not a failure of the operation:
			// the server left on purpose, the quorum re-pick against the
			// adopted view covers it — exactly like a missing reply.
			if errors.Is(err, transport.ErrNotInView) {
				continue
			}
			c.suspect(s.Server, err)
			return fmt.Errorf("server %d: %w", s.Server, err)
		}
	}
	return nil
}

// suspect marks server suspected so the engine's next picks avoid it, when
// the engine's systems allow that (Engine.FaultAware).
func (c *Client) suspect(server int, cause error) {
	if c.e.FaultAware() && c.e.health.Suspect(server, cause) {
		c.counters.Suspicions.Inc()
	}
}

func (c *Client) backoff(attempt int) {
	if c.backoffBase <= 0 {
		return
	}
	shift := attempt
	if shift > 20 {
		shift = 20
	}
	d := c.backoffBase << shift
	if d > c.backoffMax && c.backoffMax > 0 {
		d = c.backoffMax
	}
	time.Sleep(d)
}

// run drives one Operation to completion: fan out, pump deliveries, retry
// on a fresh quorum when the attempt times out, a quorum member's transport
// fails (timeout mode), or the masking vote count rejects the read.
func (c *Client) run(o *Operation, kind trace.Kind) (msg.Tagged, error) {
	if c.latency != nil {
		start := time.Now()
		defer func() { c.latency.Observe(time.Since(start)) }()
	}
	var pt phaseTimer
	pt.begin(c.obsv)
	invoke := c.clock()
	sends := o.Start()
	pt.lap(phasePick)
	for {
		c.drainStale()
		cause := c.sendAll(sends)
		if probe, ok := o.Probe(); ok && cause == nil {
			// Fire and forget: only a reply matters, and it clears the
			// suspicion in pump.
			c.counters.Probes.Inc()
			_ = c.tr.Send(probe.Server, probe.Req)
		}
		pt.lap(phaseFanOut)
		if cause == nil {
			cause = c.pump(o, &pt)
		}
		pt.lapWait()
		if errors.Is(cause, errAttemptTimeout) {
			for _, srv := range o.Silent() {
				c.suspect(srv, cause)
			}
		}
		if f, ok := cause.(fatalError); ok {
			return msg.Tagged{}, f.err
		}
		if cause == nil && o.Done() {
			if c.obsv != nil && o.FastPath() {
				c.obsv.FastReads.Inc()
			}
			if c.log != nil {
				c.log.Record(trace.Op{
					Kind:    kind,
					Proc:    c.proc,
					Reg:     o.Reg(),
					Invoke:  invoke,
					Respond: c.clock(),
					Tag:     o.Result(),
				})
			}
			pt.finish()
			return o.Result(), nil
		}
		if cause != nil && c.opTimeout <= 0 {
			// Strict mode: no deadline machinery, so a member failure is
			// final rather than a cue to re-pick.
			return msg.Tagged{}, fmt.Errorf("%s reg %d: %w", o.Desc(), o.Reg(), cause)
		}
		attempt := o.Attempts()
		var err error
		sends, err = o.Retry()
		if err != nil {
			if cause != nil {
				return msg.Tagged{}, fmt.Errorf("%s reg %d: %w after %d attempts (last: %v)",
					o.Desc(), o.Reg(), err, attempt, cause)
			}
			return msg.Tagged{}, fmt.Errorf("%s reg %d: %w", o.Desc(), o.Reg(), err)
		}
		pt.lap(phasePick)
		c.counters.Retries.Inc()
		c.backoff(attempt - 1)
		pt.skip()
	}
}

// pump delivers queued transport events into o until the attempt resolves:
// nil when the operation completed or was masked-rejected (check o.Done /
// o.Rejected), errAttemptTimeout on deadline, a member's transport error,
// or fatalError when the transport died. It laps pt across an atomic read's
// phase transition so the write-back round is timed separately.
func (c *Client) pump(o *Operation, pt *phaseTimer) error {
	var timer *time.Timer
	var deadline <-chan time.Time
	if c.opTimeout > 0 {
		timer = time.NewTimer(c.opTimeout)
		defer timer.Stop()
		deadline = timer.C
	}
	for {
		ev, ok := c.pop()
		if !ok {
			select {
			case <-c.notify:
			case <-deadline:
				return errAttemptTimeout
			case <-c.fatalc:
				return fatalError{err: c.fatalErr}
			}
			continue
		}
		if ev.err != nil {
			c.suspect(ev.server, ev.err)
			if o.Member(ev.server) {
				return fmt.Errorf("server %d: %w", ev.server, ev.err)
			}
			continue
		}
		c.e.health.Clear(ev.server) // any reply is proof of life
		// Per-kind dispatch: concretely queued replies stay concrete all the
		// way into the Operation. A stale event is a late reply to an
		// abandoned attempt (it raced a timeout); dropped by op-id — on a
		// self-delimiting wire this costs nothing but the counter tick.
		var sends []Send
		switch ev.kind {
		case evReadReply:
			if o.StaleRead(ev.read) {
				c.counters.StaleDrops.Inc()
				continue
			}
			sends = o.DeliverReadReply(ev.server, ev.read)
		case evWriteAck:
			if o.StaleAck(ev.ack) {
				c.counters.StaleDrops.Inc()
				continue
			}
			sends = o.DeliverWriteAck(ev.server, ev.ack)
		case evStaleEpoch:
			if o.StaleReject(ev.stale) {
				c.counters.StaleDrops.Inc()
				continue
			}
			sends = o.DeliverStaleEpoch(ev.server, ev.stale)
		default:
			if o.Stale(ev.payload) {
				c.counters.StaleDrops.Inc()
				continue
			}
			sends = o.Deliver(ev.server, ev.payload)
		}
		if v, ok := o.NewerView(); ok {
			// A replica rejected this attempt from a newer view: adopt it,
			// re-target the transport, and re-fan against the new quorum
			// system. This consumes no retry budget — reconfiguration is not
			// a fault — but does restart the attempt deadline.
			c.AdoptView(v)
			pt.lap(phaseQuorumWait)
			sends = o.RetryView()
			c.counters.ViewAdopts.Inc()
			if err := c.sendAll(sends); err != nil {
				return err
			}
			pt.lap(phaseFanOut)
			if timer != nil {
				if !timer.Stop() {
					select {
					case <-timer.C:
					default:
					}
				}
				timer.Reset(c.opTimeout)
			}
			continue
		}
		if o.Done() {
			// Any sends are fire-and-forget read repairs; errors are
			// irrelevant to the completed operation.
			for _, s := range sends {
				_ = c.tr.Send(s.Server, s.Req)
			}
			return nil
		}
		if o.Rejected() {
			return nil
		}
		if len(sends) > 0 {
			// Phase transition (atomic read's write-back): fan out and
			// restart the attempt deadline for the new phase.
			pt.lap(phaseQuorumWait)
			if err := c.sendAll(sends); err != nil {
				return err
			}
			pt.lap(phaseFanOut)
			pt.writeBack = true
			if timer != nil {
				if !timer.Stop() {
					select {
					case <-timer.C:
					default:
					}
				}
				timer.Reset(c.opTimeout)
			}
		}
	}
}

// Read performs one read of reg and returns the freshest tagged value the
// quorum answered with (filtered through the monotone cache and the
// b-masking vote count when those are enabled).
func (c *Client) Read(reg msg.RegisterID) (msg.Tagged, error) {
	return c.run(c.e.NewReadOp(reg, c.retries), trace.KindRead)
}

// ReadAtomic performs an ABD-style atomic read. When the quorum's replies
// disagree, the read's result is written back to a fresh quorum and the
// acknowledgments awaited before it is returned; when every reply carries
// the same timestamp the write-back is elided and the read completes in one
// round trip (counted by Observer.FastReads and Engine.FastReads). Over a
// strict quorum system this is the classic construction for atomicity; over
// a probabilistic system the write-back still helps freshness but atomicity
// only holds with high probability.
func (c *Client) ReadAtomic(reg msg.RegisterID) (msg.Tagged, error) {
	return c.run(c.e.NewAtomicReadOp(reg, c.retries), trace.KindRead)
}

// Write performs one single-writer write of val to reg and returns the tag
// it installed.
func (c *Client) Write(reg msg.RegisterID, val msg.Value) (msg.Tagged, error) {
	return c.run(c.e.NewWriteOp(reg, val, c.retries), trace.KindWrite)
}

// WriteMulti performs a multi-writer write: a read phase discovers the
// current maximum timestamp, and the write phase installs val one past it,
// tie-broken by writer id.
func (c *Client) WriteMulti(reg msg.RegisterID, val msg.Value) (msg.Timestamp, error) {
	cur, err := c.run(c.e.NewReadOp(reg, c.retries), trace.KindRead)
	if err != nil {
		return msg.Timestamp{}, fmt.Errorf("multi-writer read phase: %w", err)
	}
	ts := c.e.NextMultiWriterTS(cur.TS)
	tag := msg.Tagged{TS: ts, Val: val}
	if _, err := c.run(c.e.NewWriteTagOp(reg, tag, c.retries), trace.KindWrite); err != nil {
		return msg.Timestamp{}, err
	}
	return ts, nil
}
