package register

import (
	"probquorum/internal/msg"
)

// Send is one outbound fan-out request: hand Req to server Server. The
// transport-agnostic Operation below appends these to a buffer its caller
// owns instead of touching a network; the caller (the Pipeline, or a
// simulator node) pushes them through whatever carrier it runs over.
type Send struct {
	Server int
	Req    any
}

// opKind is what an operation does.
type opKind uint8

const (
	opRead opKind = iota + 1
	opWrite
	// opAtomicRead is the ABD read: a read phase followed by an awaited
	// write-back phase — unless the quorum replied unanimously, in which case
	// the write-back is elided and the read completes in one round trip (see
	// Engine.TryFinishReadFast).
	opAtomicRead
	// opWriteMulti is the multi-writer write: a read phase discovers the
	// current maximum timestamp, and the write phase installs the value one
	// past it, tie-broken by writer id (Engine.NextMultiWriterTS).
	opWriteMulti
)

// opPhase distinguishes the two rounds of an atomic read or a multi-writer
// write (and trivially labels plain reads and writes).
type opPhase uint8

const (
	opPhaseRead opPhase = iota + 1
	opPhaseWrite
)

// Operation is the full state machine of one register operation, decoupled
// from any transport: the caller starts it, feeds it inbound payloads, and
// fans out whatever Sends it appends. It owns the protocol — quorum
// sessions, the two-round phase transitions (ABD write-back, multi-writer
// write), b-masking acceptance, read-repair dispatch, member top-up and the
// fresh-quorum retry budget — so every driver (the Pipeline, the simulator's
// nodes) runs the identical transition table.
//
// Every method that fans out appends to the out slice it is given and
// returns the extended slice, one request boxing per fan-out; the caller
// must hand the sends to its carrier before reusing the buffer.
//
// An Operation is not safe for concurrent use; it inherits the Engine's
// one-caller-at-a-time discipline.
type Operation struct {
	// What every reply touches comes first, to share a cache line.
	e     *Engine
	rs    *ReadSession
	ws    *WriteSession
	reg   msg.RegisterID
	kind  opKind
	phase opPhase
	done  bool
	// rejected marks a completed read whose vote count failed the b-masking
	// threshold: the attempt is over but the operation is not done, and the
	// caller should Retry on a fresh quorum.
	rejected bool
	// fast marks an atomic read that completed without a write-back phase.
	fast bool
	// retries caps the total attempts at retries+1 (0 = unlimited).
	retries  int32
	attempts int32
	val      msg.Value
	result   msg.Tagged
}

// NewReadOp prepares a read of reg with the given retry budget.
func (e *Engine) NewReadOp(reg msg.RegisterID, retries int) *Operation {
	return &Operation{e: e, kind: opRead, reg: reg, retries: int32(retries)}
}

// NewAtomicReadOp prepares an ABD atomic read of reg: a read phase followed,
// when the quorum's replies disagree, by an awaited write-back of the result
// (Attiya–Bar-Noy–Dolev), giving atomicity on top of strict quorums. When
// every reply carries the same timestamp the write-back is elided and the
// read completes in a single round trip (FastPath reports which happened).
func (e *Engine) NewAtomicReadOp(reg msg.RegisterID, retries int) *Operation {
	return &Operation{e: e, kind: opAtomicRead, reg: reg, retries: int32(retries)}
}

// NewWriteOp prepares a single-writer write of val to reg.
func (e *Engine) NewWriteOp(reg msg.RegisterID, val msg.Value, retries int) *Operation {
	return &Operation{e: e, kind: opWrite, reg: reg, val: val, retries: int32(retries)}
}

// fanOut appends one send per quorum member, all sharing req boxed once.
func fanOut(out []Send, quorum []int, req any) []Send {
	for _, srv := range quorum {
		out = append(out, Send{Server: srv, Req: req})
	}
	return out
}

// request returns the current phase's request, boxed.
func (o *Operation) request() any {
	if o.phase == opPhaseWrite {
		return o.ws.Request()
	}
	return o.rs.Request()
}

// refan appends the current phase's fan-out to out.
func (o *Operation) refan(out []Send) []Send {
	return fanOut(out, o.current().Quorum, o.request())
}

// Start begins the first attempt and appends its fan-out to out.
func (o *Operation) Start(out []Send) []Send {
	o.attempts = 1
	if o.kind == opWrite {
		o.phase = opPhaseWrite
		o.ws = o.e.BeginWrite(o.reg, o.val)
	} else {
		o.phase = opPhaseRead
		o.rs = o.e.BeginRead(o.reg)
	}
	return o.refan(out)
}

// Deliver feeds one server's reply into the current attempt and appends
// whatever it triggers to out: the second round of an atomic read whose
// quorum replies disagreed or of a multi-writer write (awaited — keep
// delivering), or the fire-and-forget repair messages of a completed
// repaired read (Done is already true; send them without awaiting
// anything). Irrelevant payloads — stale sessions, non-members, duplicate
// replies, foreign types — are ignored; stale-epoch rejects go to
// DeliverStaleEpoch.
func (o *Operation) Deliver(server int, payload any, out []Send) []Send {
	switch m := payload.(type) {
	case msg.ReadReply:
		return o.DeliverReadReply(server, m, out)
	case msg.WriteAck:
		o.DeliverWriteAck(server, m)
	}
	return out
}

// DeliverReadReply is Deliver for a concretely typed read reply — the
// de-boxed hot path a transport.ReplySink driver feeds directly, with the
// same contract as Deliver.
func (o *Operation) DeliverReadReply(server int, m msg.ReadReply, out []Send) []Send {
	if o.done || o.rejected || o.phase != opPhaseRead || !o.rs.OnReply(server, m) {
		return out
	}
	switch o.kind {
	case opAtomicRead:
		if tag, ok := o.e.TryFinishReadFast(o.rs); ok {
			// Unanimous quorum: every member already holds the result, so
			// the write-back would install nothing — complete in one round
			// trip.
			o.result, o.fast, o.done = tag, true, true
			return out
		}
		// Phase transition: write the read's result back and await the
		// acknowledgments before returning it (ABD).
		o.result = o.e.FinishRead(o.rs)
		return o.beginWrite(o.result, out)
	case opWriteMulti:
		cur, ok := o.e.FinishReadMasked(o.rs)
		if !ok {
			o.rejected = true
			return out
		}
		return o.beginWrite(msg.Tagged{TS: o.e.NextMultiWriterTS(cur.TS), Val: o.val}, out)
	}
	tag, ok := o.e.FinishReadMasked(o.rs)
	if !ok {
		o.rejected = true
		return out
	}
	o.result, o.done = tag, true
	if !o.e.readRepair {
		return out
	}
	servers, req := o.e.RepairTargets(o.rs, tag)
	if len(servers) == 0 {
		return out // and box no request
	}
	return fanOut(out, servers, req)
}

// beginWrite opens the second round: tag goes to a freshly picked write
// quorum under its own operation id.
func (o *Operation) beginWrite(tag msg.Tagged, out []Send) []Send {
	o.phase = opPhaseWrite
	o.ws = o.e.BeginWriteWithTS(o.reg, tag)
	return o.refan(out)
}

// DeliverWriteAck is Deliver for a concretely typed write acknowledgment.
func (o *Operation) DeliverWriteAck(server int, m msg.WriteAck) {
	if o.done || o.rejected || o.phase != opPhaseWrite || !o.ws.OnAck(server, m) {
		return
	}
	if o.kind != opAtomicRead {
		o.result = o.ws.Tag
	}
	o.done = true
}

// DeliverStaleEpoch takes a stale-epoch reject: a replica on a newer view
// refused this attempt. It reports whether the reject addresses the current
// attempt (of either round) and carries a view newer than the one the
// attempt was picked under; the driver then adopts m.View — Engine.AdoptView
// plus transport.Update — and re-fans with RetryView. Rejects addressed to
// abandoned attempts, or carrying a view the attempt already runs under,
// concern nobody.
func (o *Operation) DeliverStaleEpoch(_ int, m msg.StaleEpoch) bool {
	if o.done || o.rejected || o.phase == 0 || m.Reg != o.reg {
		return false
	}
	if m.Op != o.currentID() && (o.rs == nil || m.Op != o.rs.Op) {
		return false
	}
	return m.View.Newer(o.current().Epoch)
}

// RetryView abandons the current attempt and re-fans it against the
// engine's (freshly adopted) view, appending the fan-out to out. Unlike
// Retry it does not consume the retry budget: a reconfiguration is not a
// fault, and a client riding through a long rolling restart must not run
// out of attempts because of it. The phase is preserved, as in Retry.
func (o *Operation) RetryView(out []Send) []Send { return o.repick(out) }

// Retry abandons the current attempt — quorum members crashed, timed out, or
// (under masking) outvoted the honest replicas — and starts a fresh one on a
// freshly picked quorum, appending its fan-out to out. When the budget is
// exhausted it returns ErrQuorumUnavailable instead. A two-round operation
// retries the round it is in: a failed write-back re-fans the same tag, it
// does not restart the read.
func (o *Operation) Retry(out []Send) ([]Send, error) {
	if err := o.spend(); err != nil {
		return out, err
	}
	return o.repick(out), nil
}

// expire is the current attempt's deadline passing with members still
// silent. It spends one unit of retry budget like Retry, and then replaces
// the silent members within the attempt when every one of them finds a
// replacement (topUp) — replies already collected stay — or re-issues the
// attempt on a fresh quorum otherwise; repicked reports which. The caller
// suspects the silent members first, so none is drawn as another's
// replacement.
func (o *Operation) expire(out []Send) (sends []Send, repicked bool, err error) {
	if err := o.spend(); err != nil {
		return out, false, err
	}
	if topped, ok := o.topUp(-1, out); ok {
		return topped, false, nil
	}
	return o.repick(out), true, nil
}

func (o *Operation) spend() error {
	if o.retries > 0 && o.attempts > o.retries {
		return ErrQuorumUnavailable
	}
	o.attempts++
	return nil
}

func (o *Operation) repick(out []Send) []Send {
	o.rejected = false
	if o.phase == opPhaseRead {
		o.rs = o.e.RetryRead(o.rs)
	} else {
		o.ws = o.e.RetryWrite(o.ws)
	}
	return o.refan(out)
}

// topUp replaces the current attempt's pending members that are lost —
// server, or every pending member when server < 0 — each by a server drawn
// from those neither in the attempt nor suspected (Engine.TopUpRead),
// appending the re-sends to out under the same operation id. ok is false
// when a lost member found no replacement: the engine is not FaultAware, or
// no candidate is left. A server that is not a pending member needs
// nothing, and reports ok.
func (o *Operation) topUp(server int, out []Send) ([]Send, bool) {
	f := o.current()
	if o.done || o.rejected || f == nil {
		return out, true
	}
	var req any
	for i, srv := range f.Quorum {
		if !f.Pending(i) || (server >= 0 && srv != server) {
			continue
		}
		repl, ok := o.e.topUp(f, i)
		if !ok {
			return out, false
		}
		if req == nil {
			req = o.request() // boxed once, like the first fan-out's
		}
		out = append(out, Send{Server: repl, Req: req})
	}
	return out, true
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
func (o *Operation) Attempts() int { return int(o.attempts) }

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
	switch o.phase {
	case opPhaseRead:
		return &o.rs.fanout
	case opPhaseWrite:
		return &o.ws.fanout
	}
	return nil
}

// currentID is the operation id the current attempt's requests carry.
func (o *Operation) currentID() msg.OpID {
	if o.phase == opPhaseWrite {
		return o.ws.Op
	}
	return o.rs.Op
}

// secondRound reports whether the operation is in the second round of a
// two-round operation: an atomic read's write-back, or a multi-writer
// write's write phase.
func (o *Operation) secondRound() bool { return o.phase == opPhaseWrite && o.kind != opWrite }

// Probe returns the shadow request to send alongside a read-phase attempt
// when a suspected server is due a probe (Engine.ProbeRead).
func (o *Operation) Probe() (Send, bool) {
	if o.phase != opPhaseRead {
		return Send{}, false
	}
	srv, ok := o.e.ProbeRead(o.rs)
	if !ok {
		return Send{}, false
	}
	return Send{Server: srv, Req: o.rs.Request()}, true
}

// Desc names the operation for error messages.
func (o *Operation) Desc() string {
	switch o.kind {
	case opAtomicRead:
		if o.phase == opPhaseWrite {
			return "atomic read write-back"
		}
		return "atomic read"
	case opWriteMulti:
		return "multi-writer write"
	case opWrite:
		return "write"
	default:
		return "read"
	}
}
