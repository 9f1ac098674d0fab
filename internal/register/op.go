package register

import (
	"probquorum/internal/msg"
	"probquorum/internal/quorum"
)

// Send is one outbound fan-out request: hand Req to server Server. The
// transport-agnostic Operation below returns slices of these instead of
// touching a network; the caller (Client, Pipeline, or a simulator node)
// pushes them through whatever carrier it runs over.
type Send struct {
	Server int
	Req    any
}

// opAtomicRead extends the pipeline's opKind enumeration for the ABD read:
// a read phase followed by an awaited write-back phase — unless the quorum
// replied unanimously, in which case the write-back is elided and the read
// completes in one round trip (see Engine.TryFinishReadFast).
const opAtomicRead opKind = opWrite + 1

// opPhase distinguishes the two halves of an atomic read (and trivially
// labels plain reads and writes).
type opPhase int

const (
	opPhaseRead opPhase = iota + 1
	opPhaseWrite
)

// Operation is the full state machine of one register operation, decoupled
// from any transport: the caller starts it, feeds it inbound payloads, and
// fans out whatever Sends it returns. It owns the protocol — quorum
// sessions, the ABD read→write-back phase transition, b-masking acceptance,
// read-repair dispatch, and the fresh-quorum retry budget — so every runtime
// (blocking client, pipeline, simulator node) drives the identical logic.
//
// An Operation is not safe for concurrent use; it inherits the Engine's
// one-pending-operation-per-process discipline.
type Operation struct {
	e      *Engine
	kind   opKind
	reg    msg.RegisterID
	val    msg.Value
	tagIn  msg.Tagged
	hasTag bool
	// retries caps the total attempts at retries+1 (0 = unlimited).
	retries int

	phase    opPhase
	rs       *ReadSession
	ws       *WriteSession
	attempts int
	result   msg.Tagged
	done     bool
	// scratch backs every fan-out this operation returns: the caller must
	// consume (or copy) a returned []Send before the next Start/Deliver/Retry
	// call, which every driver does — they hand the sends to the transport
	// synchronously. Reusing it makes steady-state attempts allocation-free.
	scratch []Send
	// rejected marks a completed read whose vote count failed the b-masking
	// threshold: the attempt is over but the operation is not done, and the
	// caller should Retry on a fresh quorum.
	rejected bool
	// fast marks an atomic read that completed without a write-back phase.
	fast bool
	// newView holds a replacement membership view delivered by a StaleEpoch
	// reject of the current attempt. The driver consumes it via NewerView,
	// adopts it (engine + transport), and re-fans with RetryView.
	newView    quorum.View
	hasNewView bool
}

// NewReadOp prepares a read of reg with the given retry budget.
func (e *Engine) NewReadOp(reg msg.RegisterID, retries int) *Operation {
	return &Operation{e: e, kind: opRead, reg: reg, retries: retries}
}

// NewAtomicReadOp prepares an ABD atomic read of reg: a read phase followed,
// when the quorum's replies disagree, by an awaited write-back of the result
// (Attiya–Bar-Noy–Dolev), giving atomicity on top of strict quorums. When
// every reply carries the same timestamp the write-back is elided and the
// read completes in a single round trip (FastPath reports which happened).
func (e *Engine) NewAtomicReadOp(reg msg.RegisterID, retries int) *Operation {
	return &Operation{e: e, kind: opAtomicRead, reg: reg, retries: retries}
}

// NewWriteOp prepares a single-writer write of val to reg.
func (e *Engine) NewWriteOp(reg msg.RegisterID, val msg.Value, retries int) *Operation {
	return &Operation{e: e, kind: opWrite, reg: reg, val: val, retries: retries}
}

// NewWriteTagOp prepares a write carrying an explicit tag — the write phase
// of the multi-writer extension, after NextMultiWriterTS has chosen the
// timestamp.
func (e *Engine) NewWriteTagOp(reg msg.RegisterID, tag msg.Tagged, retries int) *Operation {
	return &Operation{e: e, kind: opWrite, reg: reg, tagIn: tag, hasTag: true, retries: retries}
}

// fanOut builds the per-member send list in the operation's scratch slice —
// one request boxing, zero slice allocations once the scratch has grown.
func (o *Operation) fanOut(quorum []int, req any) []Send {
	if cap(o.scratch) < len(quorum) {
		o.scratch = make([]Send, len(quorum))
	}
	out := o.scratch[:len(quorum)]
	for i, srv := range quorum {
		out[i] = Send{Server: srv, Req: req}
	}
	return out
}

// Start begins the first attempt and returns its fan-out.
func (o *Operation) Start() []Send {
	o.attempts = 1
	switch o.kind {
	case opRead, opAtomicRead:
		o.phase = opPhaseRead
		o.rs = o.e.BeginRead(o.reg)
		return o.fanOut(o.rs.Quorum, o.rs.Request())
	default:
		o.phase = opPhaseWrite
		if o.hasTag {
			o.ws = o.e.BeginWriteWithTS(o.reg, o.tagIn)
		} else {
			o.ws = o.e.BeginWrite(o.reg, o.val)
		}
		return o.fanOut(o.ws.Quorum, o.ws.Request())
	}
}

// Deliver feeds one server's payload into the current attempt. It returns a
// non-empty fan-out when the delivery triggered a new send phase: the
// write-back of an atomic read whose quorum replies disagreed (awaited —
// keep pumping; a unanimous quorum skips this phase and completes the
// operation outright), or the
// fire-and-forget repair messages of a completed repaired read (Done is
// already true; send them without awaiting anything). Irrelevant payloads —
// stale sessions, non-members, duplicate replies, foreign types — are
// ignored.
func (o *Operation) Deliver(server int, payload any) []Send {
	switch m := payload.(type) {
	case msg.ReadReply:
		return o.DeliverReadReply(server, m)
	case msg.WriteAck:
		return o.DeliverWriteAck(server, m)
	case msg.StaleEpoch:
		return o.DeliverStaleEpoch(server, m)
	default:
		return nil
	}
}

// DeliverReadReply is Deliver for a concretely typed read reply — the
// de-boxed hot path a transport.ReplySink driver feeds directly, with the
// same contract as Deliver.
func (o *Operation) DeliverReadReply(server int, m msg.ReadReply) []Send {
	if o.done || o.rejected {
		return nil
	}
	if o.phase != opPhaseRead || !o.rs.OnReply(server, m) {
		return nil
	}
	if o.kind == opAtomicRead {
		if tag, ok := o.e.TryFinishReadFast(o.rs); ok {
			// Unanimous quorum: every member already holds the result,
			// so the write-back would install nothing — complete in one
			// round trip.
			o.result = tag
			o.fast = true
			o.done = true
			return nil
		}
		// Phase transition: write the read's result back and await the
		// acknowledgments before returning it (ABD).
		o.result = o.e.FinishRead(o.rs)
		o.phase = opPhaseWrite
		o.ws = o.e.BeginWriteWithTS(o.reg, o.result)
		return o.fanOut(o.ws.Quorum, o.ws.Request())
	}
	tag, ok := o.e.FinishReadMasked(o.rs)
	if !ok {
		o.rejected = true
		return nil
	}
	o.result = tag
	o.done = true
	servers, req := o.e.RepairTargets(o.rs, tag)
	if len(servers) == 0 {
		return nil
	}
	return o.fanOut(servers, req)
}

// DeliverWriteAck is Deliver for a concretely typed write acknowledgment.
func (o *Operation) DeliverWriteAck(server int, m msg.WriteAck) []Send {
	if o.done || o.rejected {
		return nil
	}
	if o.phase != opPhaseWrite || !o.ws.OnAck(server, m) {
		return nil
	}
	if o.kind == opWrite {
		o.result = o.ws.Tag
	}
	o.done = true
	return nil
}

// DeliverStaleEpoch is Deliver for a concretely typed stale-epoch reject.
// A replica on a newer view refused this attempt. Record the view if it
// actually advances us; the driver adopts it and calls RetryView. Rejects
// addressed to abandoned attempts, or carrying a view we have already
// adopted, are ignored — the quorum members still on our epoch may yet
// complete the attempt.
func (o *Operation) DeliverStaleEpoch(_ int, m msg.StaleEpoch) []Send {
	if o.done || o.rejected {
		return nil
	}
	if !o.currentOp(m.Reg, m.Op) {
		return nil
	}
	if m.View.Newer(o.e.Epoch()) && (!o.hasNewView || m.View.Newer(o.newView.Epoch)) {
		o.newView = m.View
		o.hasNewView = true
	}
	return nil
}

// currentOp reports whether (reg, op) addresses the current attempt of
// either phase — the filter deciding whether a StaleEpoch reject concerns
// this operation as it stands now.
func (o *Operation) currentOp(reg msg.RegisterID, op msg.OpID) bool {
	if reg != o.reg {
		return false
	}
	if o.phase == opPhaseRead && o.rs != nil {
		return op == o.rs.Op
	}
	if o.ws != nil {
		if o.rs != nil && op == o.rs.Op {
			return true
		}
		return op == o.ws.Op
	}
	return false
}

// NewerView returns (and clears) the replacement membership view a
// StaleEpoch reject delivered for the current attempt. The driver should
// adopt it — Engine.AdoptView plus transport.Update — and then re-fan the
// operation with RetryView.
func (o *Operation) NewerView() (quorum.View, bool) {
	if !o.hasNewView {
		return quorum.View{}, false
	}
	v := o.newView
	o.newView = quorum.View{}
	o.hasNewView = false
	return v, true
}

// RetryView abandons the current attempt and re-fans it against the
// engine's (freshly adopted) view. Unlike Retry it does not consume the
// retry budget: a reconfiguration is not a fault, and a client riding
// through a long rolling restart must not run out of attempts because of
// it. The phase is preserved, as in Retry.
func (o *Operation) RetryView() []Send {
	o.rejected = false
	if o.phase == opPhaseRead {
		o.rs = o.e.RetryRead(o.rs)
		return o.fanOut(o.rs.Quorum, o.rs.Request())
	}
	o.ws = o.e.RetryWrite(o.ws)
	return o.fanOut(o.ws.Quorum, o.ws.Request())
}

// Retry abandons the current attempt — quorum members crashed, timed out, or
// (under masking) outvoted the honest replicas — and starts a fresh one on a
// freshly picked quorum, returning its fan-out. When the budget is exhausted
// it returns ErrQuorumUnavailable instead. An atomic read retries the phase
// it is in: a failed write-back re-fans the same tag, it does not restart
// the read.
func (o *Operation) Retry() ([]Send, error) {
	if o.retries > 0 && o.attempts > o.retries {
		return nil, ErrQuorumUnavailable
	}
	o.attempts++
	o.rejected = false
	if o.phase == opPhaseRead {
		o.rs = o.e.RetryRead(o.rs)
		return o.fanOut(o.rs.Quorum, o.rs.Request()), nil
	}
	o.ws = o.e.RetryWrite(o.ws)
	return o.fanOut(o.ws.Quorum, o.ws.Request()), nil
}

// Stale reports whether payload is a reply addressed to an attempt this
// operation has already abandoned: the register matches but the operation id
// is not the current attempt's. Such replies are harmless — the session's
// duplicate filter would ignore them anyway — but callers that count
// fault-path events use Stale to record them (metrics.TransportCounters.
// StaleDrops) before discarding, making "late reply raced a timeout"
// observable without a reconnect.
func (o *Operation) Stale(payload any) bool {
	switch m := payload.(type) {
	case msg.ReadReply:
		return o.staleOp(m.Reg, m.Op, true)
	case msg.WriteAck:
		return o.staleOp(m.Reg, m.Op, false)
	case msg.StaleEpoch:
		return o.StaleReject(m)
	default:
		return false
	}
}

// StaleRead is Stale for a concretely typed read reply.
func (o *Operation) StaleRead(m msg.ReadReply) bool { return o.staleOp(m.Reg, m.Op, true) }

// StaleAck is Stale for a concretely typed write acknowledgment.
func (o *Operation) StaleAck(m msg.WriteAck) bool { return o.staleOp(m.Reg, m.Op, false) }

// StaleReject is Stale for a concretely typed stale-epoch reject: a reject
// is stale exactly when it no longer addresses the current attempt of
// either phase.
func (o *Operation) StaleReject(m msg.StaleEpoch) bool { return !o.currentOp(m.Reg, m.Op) }

func (o *Operation) staleOp(reg msg.RegisterID, op msg.OpID, isRead bool) bool {
	if reg != o.reg {
		return false
	}
	if o.phase == opPhaseRead && o.rs != nil {
		return op != o.rs.Op
	}
	if o.ws != nil {
		// An atomic read in its write-back phase still owns its read
		// phase's op id: a slow-but-healthy replica's read reply arriving
		// after the quorum completed is a harmless duplicate of the current
		// attempt, not a stale drop.
		if isRead && o.rs != nil {
			return op != o.rs.Op
		}
		return op != o.ws.Op
	}
	return false
}

// Done reports whether the operation has completed successfully.
func (o *Operation) Done() bool { return o.done }

// FastPath reports whether the operation was an atomic read that completed
// in one round trip — a unanimous quorum let it skip the write-back phase.
// Only meaningful once Done reports true.
func (o *Operation) FastPath() bool { return o.fast }

// Rejected reports whether the current attempt completed but was rejected by
// the b-masking vote count; the caller should Retry.
func (o *Operation) Rejected() bool { return o.rejected }

// Result returns the operation's tagged value: the value read, or the tag
// the write installed. Only meaningful once Done reports true.
func (o *Operation) Result() msg.Tagged { return o.result }

// Reg returns the register the operation targets.
func (o *Operation) Reg() msg.RegisterID { return o.reg }

// Attempts returns how many attempts have been started.
func (o *Operation) Attempts() int { return o.attempts }

// PendingTag returns the tag of the in-flight write phase — what a trace
// records at invocation time, before any acknowledgment arrives. Only
// meaningful while a write phase is active: before one exists (a plain read,
// or an atomic read still in its read phase) it returns the zero Tagged
// instead of panicking, so tracers may call it unconditionally.
func (o *Operation) PendingTag() msg.Tagged {
	if o.ws == nil {
		return msg.Tagged{}
	}
	return o.ws.Tag
}

// current returns the membership half of the current attempt's session, nil
// before the operation has started.
func (o *Operation) current() *fanout {
	if o.phase == opPhaseRead && o.rs != nil {
		return &o.rs.fanout
	}
	if o.ws != nil {
		return &o.ws.fanout
	}
	return nil
}

// Member reports whether server belongs to the current attempt's quorum —
// the filter deciding whether a per-server transport failure dooms this
// attempt or concerns someone else's traffic.
func (o *Operation) Member(server int) bool {
	f := o.current()
	return f != nil && pos(f.Quorum, server) >= 0
}

// Silent returns the members of the current attempt's quorum that have not
// answered — the servers a driver suspects when the attempt's deadline
// expires.
func (o *Operation) Silent() []int {
	f := o.current()
	if f == nil {
		return nil
	}
	var out []int
	for i, srv := range f.Quorum {
		if f.Pending(i) {
			out = append(out, srv)
		}
	}
	return out
}

// Probe returns the shadow request to send alongside a read-phase attempt
// when a suspected server is due a probe (Engine.ProbeRead).
func (o *Operation) Probe() (Send, bool) {
	if o.phase != opPhaseRead || o.rs == nil {
		return Send{}, false
	}
	srv, ok := o.e.ProbeRead(o.rs)
	return Send{Server: srv, Req: o.rs.Request()}, ok
}

// Desc names the operation for error messages.
func (o *Operation) Desc() string {
	switch o.kind {
	case opAtomicRead:
		if o.phase == opPhaseWrite {
			return "atomic read write-back"
		}
		return "atomic read"
	case opWrite:
		return "write"
	default:
		return "read"
	}
}
