package transport

import (
	"errors"

	"probquorum/internal/msg"
	"probquorum/internal/quorum"
)

// ErrNotInView reports a Send to a server index outside the transport's
// current view — typically a request racing a view shrink. Callers treat it
// like a missing reply (the server is gone on purpose, not crashed): the
// operation's deadline re-issues against the current view, and the server is
// not suspected.
var ErrNotInView = errors.New("transport: server index not in current view")

// Updater is implemented by transports that can re-target their endpoints at
// runtime when the membership view changes. Update rebinds server index i to
// the view's i-th member: the TCP adapter re-dials joiners and drains leavers
// on the live writer path, and the simulator reschedules nodes on virtual
// time.
// Updates are idempotent and ordered by epoch — an Update carrying an epoch
// the transport has already adopted (or an older one) is a no-op.
type Updater interface {
	Update(v quorum.View) error
}

// Update re-targets t to the view if it (or the transport it wraps) supports
// runtime membership, and reports whether it did. Transports without an
// Update seam keep their dial-time endpoints; the register layer still
// re-picks quorums against the new view's parameters, which is exactly right
// for in-process adapters whose endpoints never move.
func Update(t Transport, v quorum.View) (bool, error) {
	if u, ok := t.(Updater); ok {
		return true, u.Update(v)
	}
	return false, nil
}

// ReplySink receives server replies as concrete message values, for the
// three reply kinds. Servers coalesce replies into batch frames, and the TCP
// transport walks every reply frame — batch or lone — straight into one of
// these (msg.VisitBatchPayload, msg.VisitPayload), so a client decodes a full
// frame of replies without boxing each element into an interface and pays its
// internal synchronization once per frame, not once per reply. Like Sink, methods may
// be invoked from internal goroutines and must not block.
type ReplySink interface {
	// ReplyBatch delivers one frame's worth of replies from one server. It
	// must be semantically identical to handling each element in slice
	// order. The slices are only valid for the duration of the call: the
	// transport recycles them.
	ReplyBatch(server int, reads []msg.ReadReply, acks []msg.WriteAck)
	// StaleEpoch delivers one stale-epoch reject. Rejects are never batched:
	// they are cold and carry view-adoption side effects whose ordering
	// against the replies decoded before them matters.
	StaleEpoch(server int, m msg.StaleEpoch)
}

// ReplyBinder is implemented by transports that deliver replies through a
// ReplySink. BindReplies must be called before the first Send, after Bind;
// the Sink then carries only errors and Broadcast notifications. It reports
// whether the bind took effect: a wrapper over a transport without a
// concrete reply path forwards the inner transport's answer instead of
// claiming support it cannot honor. A transport without one sends its
// replies boxed through the Sink, which the register client dispatches into
// the same typed calls.
type ReplyBinder interface {
	BindReplies(rs ReplySink) bool
}

// BindReplies installs rs on t if t (or the transport it wraps) supports
// concrete-typed delivery, reporting whether it did. When it reports false,
// replies keep arriving boxed through the Sink.
func BindReplies(t Transport, rs ReplySink) bool {
	if rb, ok := t.(ReplyBinder); ok {
		return rb.BindReplies(rs)
	}
	return false
}
