package transport

import (
	"sync/atomic"
	"time"

	"probquorum/internal/quorum"
)

// ProbeInterval is how often a suspected server is sent one shadow request
// (Health.ProbeTarget), and so how soon after recovering it is picked again.
const ProbeInterval = 25 * time.Millisecond

// Health is one client's suspicion table: which of a transport's servers it
// currently believes lost, since when, and why. A register client creates one
// per transport binding and shares it between every engine picking quorums
// over that transport; servers are suspected on unambiguous signals only (a
// dead connection, a failed hand-off, an expired operation deadline) and
// cleared by any reply from them.
//
// All methods are safe for concurrent use and take no lock. The nil *Health
// is valid and suspects nobody, so clients built without a transport need no
// special case. Any is the gate in front of everything else: one atomic load,
// false on a healthy run.
type Health struct {
	suspects atomic.Int32
	slots    atomic.Pointer[[]healthSlot]
	epoch    atomic.Uint64
	start    time.Time // monotonic base of since and nextProbe
}

type healthSlot struct {
	since     atomic.Int64 // offset from start of the suspicion; 0 = not suspected
	nextProbe atomic.Int64 // offset from start at which the next probe may go; only ProbeTarget moves it
	lastErr   atomic.Pointer[error]
}

// ServerHealth is one server's row of a Health snapshot.
type ServerHealth struct {
	Suspected bool
	// Since is when the current suspicion began (zero when not suspected).
	Since time.Time
	// LastErr is the most recent failure attributed to the server, kept
	// after the suspicion clears.
	LastErr error
}

// NewHealth returns a table for servers 0..n-1 with nobody suspected.
func NewHealth(n int) *Health {
	h := &Health{start: time.Now()}
	slots := make([]healthSlot, n)
	h.slots.Store(&slots)
	return h
}

// Any reports whether any server is suspected.
func (h *Health) Any() bool { return h != nil && h.suspects.Load() != 0 }

// Suspected reports whether server is suspected.
func (h *Health) Suspected(server int) bool {
	if !h.Any() {
		return false
	}
	slots := *h.slots.Load()
	return server >= 0 && server < len(slots) && slots[server].since.Load() != 0
}

// Suspect marks server as lost because of cause and reports whether that is
// news. A newly suspected server is due a probe at once — a connection that
// was merely reset is back in the picks one round trip later — and every
// ProbeInterval after that.
func (h *Health) Suspect(server int, cause error) bool {
	if h == nil {
		return false
	}
	sp := h.slots.Load()
	if server < 0 || server >= len(*sp) {
		return false
	}
	sl := &(*sp)[server]
	if cause != nil {
		sl.lastErr.Store(&cause)
	}
	now := max(int64(time.Since(h.start)), 1)
	if !sl.since.CompareAndSwap(0, now) {
		return false
	}
	h.suspects.Add(1)
	if h.slots.Load() != sp && sl.since.CompareAndSwap(now, 0) {
		// Reset swapped the table after the load above and had already swept
		// this slot: the mark landed where nobody reads it, so take it back.
		h.suspects.Add(-1)
		return false
	}
	return true
}

// Clear lifts the suspicion of server — it has just replied.
func (h *Health) Clear(server int) {
	if !h.Any() {
		return
	}
	slots := *h.slots.Load()
	if server >= 0 && server < len(slots) && slots[server].since.Swap(0) != 0 {
		h.suspects.Add(-1)
	}
}

// Reset sizes the table for the n servers of the view numbered epoch and
// forgets every suspicion: a view renumbers the servers, so what was learnt
// about index i says nothing about the new index i. Engines sharing the table
// adopt a view one after the other; only the first adoption of an epoch
// resets.
func (h *Health) Reset(epoch quorum.Epoch, n int) {
	if h == nil {
		return
	}
	for {
		cur := h.epoch.Load()
		if uint64(epoch) <= cur {
			return
		}
		if h.epoch.CompareAndSwap(cur, uint64(epoch)) {
			break
		}
	}
	slots := make([]healthSlot, n)
	old := h.slots.Swap(&slots)
	for i := range *old {
		if (*old)[i].since.Swap(0) != 0 {
			h.suspects.Add(-1)
		}
	}
}

// MaskInto returns the suspected servers as a pick mask, reusing dst's
// storage.
func (h *Health) MaskInto(dst quorum.Mask) quorum.Mask {
	dst = dst[:0]
	if !h.Any() {
		return dst
	}
	slots := *h.slots.Load()
	for i := range slots {
		if slots[i].since.Load() != 0 {
			dst = dst.With(i)
		}
	}
	return dst
}

// ProbeTarget returns a suspected server that is due a probe and claims the
// probe for the caller, who sends that server one request it does not wait
// for; the reply, if one comes, reaches Clear like any other. At most one
// caller per server and ProbeInterval gets a target. It reads the clock only
// when something is suspected.
func (h *Health) ProbeTarget() (server int, ok bool) {
	if !h.Any() {
		return 0, false
	}
	now := int64(time.Since(h.start))
	slots := *h.slots.Load()
	for i := range slots {
		sl := &slots[i]
		if sl.since.Load() == 0 {
			continue
		}
		if next := sl.nextProbe.Load(); now >= next && sl.nextProbe.CompareAndSwap(next, now+int64(ProbeInterval)) {
			return i, true
		}
	}
	return 0, false
}

// Snapshot returns every server's row, indexed by server.
func (h *Health) Snapshot() []ServerHealth {
	if h == nil {
		return nil
	}
	slots := *h.slots.Load()
	out := make([]ServerHealth, len(slots))
	for i := range slots {
		if since := slots[i].since.Load(); since != 0 {
			out[i].Suspected = true
			out[i].Since = h.start.Add(time.Duration(since))
		}
		if e := slots[i].lastErr.Load(); e != nil {
			out[i].LastErr = *e
		}
	}
	return out
}
