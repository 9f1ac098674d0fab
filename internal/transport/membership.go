package transport

import (
	"errors"
	"fmt"
	"strings"

	"probquorum/internal/msg"
	"probquorum/internal/quorum"
)

// ErrNotInView reports a Send to a server index outside the transport's
// current view — typically a request racing a view shrink. Callers treat it
// like a missing reply (the server is gone on purpose, not crashed), but it
// is an error so SendAll's MultiError records the drop instead of letting
// the send vanish silently.
var ErrNotInView = errors.New("transport: server index not in current view")

// Updater is implemented by transports that can re-target their endpoints at
// runtime when the membership view changes. Update rebinds server index i to
// the view's i-th member: the TCP adapter re-dials joiners and drains leavers
// on the live writer path, the cluster adapter swaps its sink slices under
// the generation lock, and the simulator reschedules nodes on virtual time.
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

// ReplySink receives server replies as concrete message values — the unboxed
// mirror of Sink for the three reply kinds. Servers coalesce replies into
// batch frames, and the TCP transport walks each frame straight into one of
// these (msg.VisitBatchPayload), so a client decodes a full frame of replies
// without boxing each element into an interface and pays its internal
// synchronization once per frame, not once per reply. Like Sink, methods may
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

// ReplyBinder is implemented by transports that can deliver replies through
// a ReplySink. BindReplies must be called before the first Send, after Bind
// (the Sink remains the path for errors, Broadcast notifications, and any
// payload outside the three reply kinds). It reports whether the bind took
// effect: a wrapper over a transport without a concrete reply path forwards
// the inner transport's answer instead of claiming support it cannot honor.
type ReplyBinder interface {
	BindReplies(rs ReplySink) bool
}

// BindReplies installs rs on t if t (or the transport it wraps) supports
// concrete-typed delivery, reporting whether it did. Callers fall back to
// the boxed Sink path when it reports false.
func BindReplies(t Transport, rs ReplySink) bool {
	if rb, ok := t.(ReplyBinder); ok {
		return rb.BindReplies(rs)
	}
	return false
}

// ReplyEpoch extracts the epoch a reply's originating request was issued
// under (the echo stamped by the replica) from a decoded reply payload. ok
// is false for payloads that are not one of the three reply kinds. Epoch 0
// means the request predated membership (static mode) or came from a peer
// speaking the pre-membership encoding.
func ReplyEpoch(payload any) (quorum.Epoch, bool) {
	switch m := payload.(type) {
	case msg.ReadReply:
		return m.Epoch, true
	case msg.WriteAck:
		return m.Epoch, true
	case msg.StaleEpoch:
		return m.Epoch, true
	default:
		return 0, false
	}
}

// MultiError aggregates per-server failures from SendAll. Errs is indexed by
// server; a nil entry is a successful hand-off. Keeping the full vector —
// rather than the first failure — is what lets a membership drain tell "this
// server already left the view" (its connection is gone on purpose) from
// "this server crashed" (it should have been reachable).
type MultiError struct {
	Errs []error
}

// Error summarizes the failed sends, one clause per failing server.
func (e *MultiError) Error() string {
	var b strings.Builder
	failed := e.Failed()
	fmt.Fprintf(&b, "transport: %d/%d sends failed", len(failed), len(e.Errs))
	for i, s := range failed {
		if i == 0 {
			b.WriteString(": ")
		} else {
			b.WriteString("; ")
		}
		fmt.Fprintf(&b, "server %d: %v", s, e.Errs[s])
	}
	return b.String()
}

// Unwrap exposes the non-nil per-server errors to errors.Is and errors.As.
func (e *MultiError) Unwrap() []error {
	out := make([]error, 0, len(e.Errs))
	for _, err := range e.Errs {
		if err != nil {
			out = append(out, err)
		}
	}
	return out
}

// Failed returns the indices of the servers whose send failed, ascending.
func (e *MultiError) Failed() []int {
	var out []int
	for s, err := range e.Errs {
		if err != nil {
			out = append(out, s)
		}
	}
	return out
}

// SendAll hands req to every server of t, collecting per-server failures
// into a *MultiError (nil when every hand-off succeeded). It never stops
// early: a failure on server i still attempts i+1..n-1, because the caller
// needs the complete failure vector to reason about the view.
func SendAll(t Transport, req any) error {
	n := t.N()
	var me *MultiError
	for s := 0; s < n; s++ {
		if err := t.Send(s, req); err != nil {
			if me == nil {
				me = &MultiError{Errs: make([]error, n)}
			}
			me.Errs[s] = err
		}
	}
	if me == nil {
		return nil
	}
	return me
}
