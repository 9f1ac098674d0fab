// Package sim is a deterministic discrete-event simulator for message-
// passing protocols: nodes are event handlers, messages are delivered after
// delays drawn from a configurable model, and virtual time advances from
// event to event.
//
// It is the substrate for the paper's Section 7 experiments. Two properties
// matter there and are guaranteed here:
//
//   - Determinism: given a seed, the execution is exactly reproducible. The
//     event heap breaks equal-time ties by sequence number, and every source
//     of randomness derives from the seed.
//   - Faithfulness to the paper's two timing models: constant delays give
//     the synchronous executions (all processes in lockstep), exponential
//     delays give the asynchronous ones.
//
// The delay model doubles as the paper's adversary: an adversary is exactly
// a rule for choosing what trigger happens next, and in a reliable-delivery
// system that is a rule for choosing message delays. Custom DelayModel
// implementations let tests build targeted adversaries (for example,
// starving one process) without touching the kernel.
package sim

import (
	"fmt"
	"math/rand/v2"
	"time"

	"probquorum/internal/msg"
	"probquorum/internal/rng"
)

// Time is virtual time in nanoseconds since the start of the execution.
type Time int64

// Duration converts a standard duration to virtual time units.
func durationToTime(d time.Duration) Time { return Time(d.Nanoseconds()) }

// Handler is a simulated node: Init runs once before the first event, and
// Recv runs for every message delivered to the node. Handlers run one at a
// time (the simulator is single-threaded), so they may share plain Go state
// such as experiment monitors.
type Handler interface {
	Init(ctx *Context)
	Recv(ctx *Context, from msg.NodeID, m any)
}

// TimerHandler is implemented by handlers that set timers with
// Context.After.
type TimerHandler interface {
	Timer(ctx *Context, kind int, payload any)
}

// DelayModel chooses the network delay of each message. It is the
// simulator's adversary hook: the paper's adversary controls trigger order,
// which in a reliable network reduces to delay choice.
type DelayModel interface {
	Delay(from, to msg.NodeID, m any, r *rand.Rand) time.Duration
}

// DistDelay draws every delay independently from a distribution — constant
// for the paper's synchronous executions, exponential for asynchronous.
type DistDelay struct {
	Dist rng.Dist
}

var _ DelayModel = DistDelay{}

// Delay implements DelayModel.
func (d DistDelay) Delay(_, _ msg.NodeID, _ any, r *rand.Rand) time.Duration {
	return d.Dist.Sample(r)
}

const (
	evMessage = iota + 1
	evTimer
	evFunc // a Clock.AfterFunc wake; payload is the *funcTimer
)

type event struct {
	at      Time
	seq     uint64
	kind    int
	from    msg.NodeID
	to      msg.NodeID
	payload any
	timer   int
}

// eventHeap is a binary min-heap of events by (at, seq), kept by value so
// scheduling an event allocates nothing once the heap has grown. Sequence
// numbers are unique, so the pop order — and with it the run — is fully
// determined. Sifts move a hole rather than swapping, one event copy per
// level.
type eventHeap []event

// before orders events by time, then by scheduling order.
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

func (h *eventHeap) push(e event) {
	q := append(*h, e)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !e.before(&q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = e
	*h = q
}

func (h *eventHeap) pop() event {
	q := *h
	top, n := q[0], len(q)-1
	last := q[n]
	q[n] = event{} // drop the payload reference
	q = q[:n]
	if n > 0 {
		i := 0
		for {
			m := 2*i + 1
			if m >= n {
				break
			}
			if r := m + 1; r < n && q[r].before(&q[m]) {
				m = r
			}
			if !q[m].before(&last) {
				break
			}
			q[i] = q[m]
			i = m
		}
		q[i] = last
	}
	*h = q
	return top
}

// node is one registered handler and the Context its steps run under.
type node struct {
	h   Handler
	ctx Context
}

// Sim is one simulated execution.
type Sim struct {
	now     Time
	seq     uint64
	events  eventHeap
	nodes   map[msg.NodeID]*node
	seed    uint64
	delays  DelayModel
	netRnd  *rand.Rand
	stopped bool

	messages  int64
	delivered int64
	maxEvents int64
}

// New returns a simulator seeded with seed whose message delays come from
// the given model.
func New(seed uint64, delays DelayModel) *Sim {
	return &Sim{
		nodes:     make(map[msg.NodeID]*node),
		seed:      seed,
		delays:    delays,
		netRnd:    rng.Derive(seed, "sim.network"),
		maxEvents: 1 << 40,
	}
}

// SetMaxEvents caps the number of delivered events; Run returns once the cap
// is hit. Experiments use it to bound non-terminating configurations (the
// paper reports such runs as lower bounds).
func (s *Sim) SetMaxEvents(n int64) { s.maxEvents = n }

// Add registers a node. It panics on duplicate identifiers: node wiring is
// experiment configuration, and failing fast beats silently replacing a
// handler.
func (s *Sim) Add(id msg.NodeID, h Handler) {
	if _, dup := s.nodes[id]; dup {
		panic(fmt.Sprintf("sim: duplicate node %d", id))
	}
	s.nodes[id] = &node{h: h, ctx: Context{sim: s, self: id, rnd: rng.Derive(s.seed, fmt.Sprintf("sim.node.%d", id))}}
}

// Now returns the current virtual time.
func (s *Sim) Now() Time { return s.now }

// Messages returns the number of messages sent so far.
func (s *Sim) Messages() int64 { return s.messages }

// Stop ends the run after the current event.
func (s *Sim) Stop() { s.stopped = true }

// Stopped reports whether Stop was called.
func (s *Sim) Stopped() bool { return s.stopped }

// push schedules e, returning the sequence number that identifies it.
func (s *Sim) push(e event) uint64 {
	s.seq++
	e.seq = s.seq
	s.events.push(e)
	return e.seq
}

// Run initializes every node and processes events until the queue drains,
// Stop is called, or the event cap is reached. It returns the number of
// events delivered.
func (s *Sim) Run() int64 {
	// Initialize in a deterministic order (ascending node id).
	ids := make([]msg.NodeID, 0, len(s.nodes))
	for id := range s.nodes {
		ids = append(ids, id)
	}
	for i := 0; i < len(ids); i++ {
		for j := i + 1; j < len(ids); j++ {
			if ids[j] < ids[i] {
				ids[i], ids[j] = ids[j], ids[i]
			}
		}
	}
	for _, id := range ids {
		n := s.nodes[id]
		n.h.Init(&n.ctx)
	}
	for len(s.events) > 0 && !s.stopped && s.delivered < s.maxEvents {
		e := s.events.pop()
		if e.kind == evFunc && e.payload.(*funcTimer).seq != e.seq {
			continue // a stopped or reset AfterFunc wake
		}
		s.now = e.at
		s.delivered++
		n, ok := s.nodes[e.to]
		if !ok {
			continue // message to an unregistered node is dropped
		}
		switch e.kind {
		case evMessage:
			n.h.Recv(&n.ctx, e.from, e.payload)
		case evTimer:
			if th, ok := n.h.(TimerHandler); ok {
				th.Timer(&n.ctx, e.timer, e.payload)
			}
		case evFunc:
			t := e.payload.(*funcTimer)
			t.seq = 0
			t.f()
		}
	}
	return s.delivered
}

// Context is a node's window onto the simulator. Each node has one for the
// whole run, so a handler may keep the Context its Init received.
type Context struct {
	sim  *Sim
	self msg.NodeID
	rnd  *rand.Rand
}

// Now returns the current virtual time.
func (c *Context) Now() Time { return c.sim.now }

// Rand returns the node's private randomness stream (derived from the
// simulation seed and the node id, so executions replay exactly).
func (c *Context) Rand() *rand.Rand { return c.rnd }

// Send schedules delivery of m to the destination after a delay drawn from
// the delay model. Delivery is reliable and the payload is delivered as-is;
// senders must not mutate it afterwards.
func (c *Context) Send(to msg.NodeID, m any) {
	s := c.sim
	s.messages++
	d := s.delays.Delay(c.self, to, m, s.netRnd)
	if d < 0 {
		d = 0
	}
	s.push(event{at: s.now + durationToTime(d), kind: evMessage, from: c.self, to: to, payload: m})
}

// After schedules a timer for the node itself.
func (c *Context) After(d time.Duration, kind int, payload any) {
	s := c.sim
	s.push(event{at: s.now + durationToTime(d), kind: evTimer, from: c.self, to: c.self, timer: kind, payload: payload})
}

// Stop ends the simulation after the current event.
func (c *Context) Stop() { c.sim.Stop() }

// Stopped reports whether the simulation has been stopped; handlers check it
// to avoid scheduling work that would never be delivered.
func (c *Context) Stopped() bool { return c.sim.stopped }

// Clock is one node's view of virtual time, in the shape of a wall clock:
// Now is the simulated time since the start of the run, and AfterFunc runs f
// as an event of the node d later. It is how code written against real time
// — a register.Pipeline's deadlines — runs on the simulator. The value is
// the same for the whole run; it never goes stale between events.
type Clock struct {
	sim  *Sim
	self msg.NodeID
}

// Clock returns node id's virtual clock.
func (s *Sim) Clock(id msg.NodeID) Clock { return Clock{sim: s, self: id} }

// Now returns the current virtual time as an offset from the start.
func (c Clock) Now() time.Duration { return time.Duration(c.sim.now) }

// Timer is the handle AfterFunc returns, with *time.Timer's Reset and Stop.
// It is an alias of an unnamed interface, so Clock satisfies interfaces
// declared elsewhere (register.Clock) without either package importing the
// other.
type Timer = interface {
	Reset(d time.Duration) bool
	Stop() bool
}

// AfterFunc schedules f to run d from now, as an event of the clock's node.
// Like every event it counts toward the run's event cap.
func (c Clock) AfterFunc(d time.Duration, f func()) Timer {
	t := &funcTimer{clock: c, f: f}
	t.Reset(d)
	return t
}

// funcTimer is a pending AfterFunc call: seq identifies its scheduled wake,
// 0 once the wake ran or the timer was stopped. A stopped or superseded wake
// stays in the event heap, and Run skips it without counting it.
type funcTimer struct {
	clock Clock
	f     func()
	seq   uint64
}

// Reset reschedules the call d from now, reporting whether it was pending.
func (t *funcTimer) Reset(d time.Duration) bool {
	pending := t.Stop()
	s := t.clock.sim
	t.seq = s.push(event{at: s.now + durationToTime(max(d, 0)), kind: evFunc, from: t.clock.self, to: t.clock.self, payload: t})
	return pending
}

// Stop cancels the call, reporting whether it was pending.
func (t *funcTimer) Stop() bool {
	pending := t.seq != 0
	t.seq = 0
	return pending
}
