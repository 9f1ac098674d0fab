package replica

// view.go is the replica side of epoch-based dynamic membership. A server
// carries at most one installed view (the membership configuration with the
// highest epoch it has seen); operations stamped with an older epoch are
// rejected with a msg.StaleEpoch reply carrying the current view, so the
// client can adopt it and re-pick without a separate fetch round. The view
// itself arrives like any other register write — the reserved msg.ViewKey
// register — which is what makes reconfiguration self-hosting: the quorum
// write/write-back path that replicates application data replicates the
// configuration too. Joining servers bootstrap with a state-transfer round
// (SnapReq/SnapReply, Snapshot/Install) before they start answering reads.

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"probquorum/internal/metrics"
	"probquorum/internal/msg"
	"probquorum/internal/quorum"
)

// ErrStaleEpoch is the sentinel matched by errors.Is for stale-epoch
// rejections; the concrete *StaleEpochError carries the replica's view.
var ErrStaleEpoch = errors.New("replica: stale epoch")

// StaleEpochError reports that a request was issued under a membership epoch
// older than the replica's current view, which it carries so the caller can
// adopt it. It matches ErrStaleEpoch under errors.Is.
type StaleEpochError struct {
	View quorum.View
}

// Error implements error.
func (e *StaleEpochError) Error() string {
	return fmt.Sprintf("replica: stale epoch, current %v", e.View)
}

// Is matches the ErrStaleEpoch sentinel.
func (e *StaleEpochError) Is(target error) bool { return target == ErrStaleEpoch }

// viewState is the store's membership bookkeeping, kept out of the Store
// struct's hot fields: the steady-state request path touches only the atomic
// pointer (one load when the request carries an epoch stamp). The counters
// and gauges are live metrics so RegisterViewMetrics can expose them on an
// obs registry without a polling adapter.
type viewState struct {
	mu     sync.Mutex // serializes installs; readers go through cur
	cur    atomic.Pointer[quorum.View]
	sealed atomic.Bool // refusing epoch-tagged ops until a newer view installs
	joins  metrics.Counter
	drains metrics.Counter
	stale  metrics.Counter
	epoch  metrics.Gauge // installed view's epoch (0 in static mode)
	size   metrics.Gauge // installed view's member count
}

// SetView installs v if its epoch is newer than the currently installed
// view's, returning whether it was installed. The join/drain counters
// advance by the membership delta between the old and new views.
func (s *Store) SetView(v quorum.View) bool {
	if err := v.Validate(); err != nil {
		return false
	}
	s.vs.mu.Lock()
	defer s.vs.mu.Unlock()
	old := s.vs.cur.Load()
	if old != nil && v.Epoch <= old.Epoch {
		return false
	}
	nv := v.Clone()
	if old == nil {
		s.vs.joins.Add(int64(len(nv.Members)))
	} else {
		for _, m := range nv.Members {
			if !old.Contains(m) {
				s.vs.joins.Inc()
			}
		}
		for _, m := range old.Members {
			if !nv.Contains(m) {
				s.vs.drains.Inc()
			}
		}
	}
	s.vs.epoch.Set(int64(nv.Epoch))
	s.vs.size.Set(int64(len(nv.Members)))
	s.vs.cur.Store(&nv)
	s.vs.sealed.Store(false) // adopting a newer view ends any seal window
	return true
}

// Seal stops the store serving epoch-tagged operations until a strictly newer
// view is installed via SetView. While sealed, StaleFor and CheckEpoch refuse
// every stamped operation — current and future epochs included — so no write
// can complete on the old configuration after the reconfigurer has captured
// its state, and no read can return old-configuration state that the new
// view's quorums might miss. Epoch-0 (static mode) traffic, operations on the
// reserved view register, and state-transfer snapshots are exempt: they are
// the machinery that moves the system to the next view. Sealing is the first
// step of the reconfiguration discipline — seal the old members, transfer
// state to the new configuration, then install the new view everywhere —
// which closes the window where an operation completing on old-view quorums
// after state transfer could be invisible to new-view quorums. Clients parked
// on the refusals simply retry under their op deadlines and adopt the new
// view from the rejection replies once it lands.
func (s *Store) Seal() { s.vs.sealed.Store(true) }

// Sealed reports whether the store is refusing epoch-tagged operations
// pending a newer view.
func (s *Store) Sealed() bool { return s.vs.sealed.Load() }

// View returns the installed view; ok=false in static mode (no view yet).
func (s *Store) View() (quorum.View, bool) {
	if v := s.vs.cur.Load(); v != nil {
		return v.Clone(), true
	}
	return quorum.View{}, false
}

// Epoch returns the installed view's epoch, 0 in static mode.
func (s *Store) Epoch() quorum.Epoch {
	if v := s.vs.cur.Load(); v != nil {
		return v.Epoch
	}
	return 0
}

// StaleFor checks an operation's epoch stamp against the installed view and
// returns the reject reply when the operation must be refused. Epoch 0
// (static mode) and operations on the reserved view register are never
// refused — a client still on the old view must be able to read and write
// the view register, or it could never catch up. Operations stamped with a
// *newer* epoch than the server's are accepted too: during the transition
// window an updated client may reach a not-yet-updated server, and the
// install-if-newer register semantics are epoch-agnostic. A sealed store
// (see Seal) refuses every stamped operation regardless of epoch.
func (s *Store) StaleFor(reg msg.RegisterID, op msg.OpID, e quorum.Epoch) (msg.StaleEpoch, bool) {
	if e == 0 || reg == msg.ViewKey {
		return msg.StaleEpoch{}, false
	}
	v := s.vs.cur.Load()
	if v == nil {
		return msg.StaleEpoch{}, false
	}
	if e >= v.Epoch && !s.vs.sealed.Load() {
		return msg.StaleEpoch{}, false
	}
	s.vs.stale.Inc()
	return msg.StaleEpoch{Reg: reg, Op: op, View: v.Clone(), Epoch: e}, true
}

// CheckEpoch is StaleFor for in-process callers that want an error instead
// of a wire reply: nil, or a *StaleEpochError carrying the current view.
func (s *Store) CheckEpoch(e quorum.Epoch) error {
	if e == 0 {
		return nil
	}
	v := s.vs.cur.Load()
	if v == nil {
		return nil
	}
	if e >= v.Epoch && !s.vs.sealed.Load() {
		return nil
	}
	s.vs.stale.Inc()
	return &StaleEpochError{View: v.Clone()}
}

// ViewStats returns the membership counters: members that joined across all
// view installs, members drained out, and operations rejected as stale.
func (s *Store) ViewStats() (joins, drains, stale int64) {
	return s.vs.joins.Value(), s.vs.drains.Value(), s.vs.stale.Value()
}

// RegisterViewMetrics attaches the store's membership metrics to r under
// prefix: the installed epoch and view size as gauges ("<prefix>.epoch",
// "<prefix>.view_size") and the cumulative join, drain, and stale-reject
// counters ("<prefix>.view_joins", "<prefix>.view_drains",
// "<prefix>.stale_rejects"). The registered metrics are the live ones SetView
// and StaleFor maintain, so scrapes cost the request path nothing.
func (s *Store) RegisterViewMetrics(prefix string, r metrics.Registrar) {
	s.vs.epoch.Register(prefix+".epoch", r)
	s.vs.size.Register(prefix+".view_size", r)
	s.vs.joins.Register(prefix+".view_joins", r)
	s.vs.drains.Register(prefix+".view_drains", r)
	s.vs.stale.Register(prefix+".stale_rejects", r)
}

// maybeInstallView watches writes to the reserved view register: a
// successfully decoded view with a newer epoch is installed as a side effect
// of the ordinary install-if-newer write. Garbage in the view register is
// ignored — the store's register semantics still apply, but membership only
// moves on a well-formed view.
func (s *Store) maybeInstallView(tag msg.Tagged) {
	b, ok := tag.Val.([]byte)
	if !ok {
		return
	}
	v, err := msg.DecodeView(b)
	if err != nil {
		return
	}
	s.SetView(v)
}

// Snapshot returns every materialized register entry — the state-transfer
// payload a joining server installs before serving. The view register rides
// along like any other entry. Shards are walked one lock at a time, so the
// snapshot is per-key atomic but not a point-in-time cut; install-if-newer
// on the receiving side makes that safe, exactly as concurrent quorum writes
// are safe.
func (s *Store) Snapshot() []msg.SnapEntry {
	out := make([]msg.SnapEntry, 0, s.Keys())
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		out = sh.t.appendEntries(out)
		sh.mu.Unlock()
	}
	return out
}

// Install merges a snapshot into the store with install-if-newer semantics,
// the same rule as ApplyWrite, so installing a stale or overlapping snapshot
// can never regress a register. A view entry also installs the view.
func (s *Store) Install(entries []msg.SnapEntry) {
	for _, e := range entries {
		s.install(e.Reg, e.Tag)
	}
}

// ApplySnap answers a state-transfer request with the full store contents
// and the installed view (zero epoch in static mode). Crashed servers are
// silent, as for every other request.
func (s *Store) ApplySnap(m msg.SnapReq) (msg.SnapReply, bool) {
	if s.crashed.Load() {
		return msg.SnapReply{}, false
	}
	v, _ := s.View()
	return msg.SnapReply{Op: m.Op, View: v, Entries: s.Snapshot()}, true
}
