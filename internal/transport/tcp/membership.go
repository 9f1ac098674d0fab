package tcp

import (
	"fmt"
	"net"
	"time"

	"probquorum/internal/msg"
	"probquorum/internal/quorum"
	"probquorum/internal/replica"
)

// This file is the TCP runtime's membership seam. A server joins in three
// steps: start its listener, merge snapshots from a read quorum of the
// current view's members (JoinQuorum — SnapReq/SnapReply exchanges carrying
// every register plus the current view), and become addressable through a
// new view written to the view register. It leaves by falling out of the
// next view: clients stop dialing it as soon as they adopt that view, its
// connections drain, and it can shut down — but when the view shrinks, the
// survivors must run JoinQuorum against the old view first (see its doc
// comment for the safety argument). Clients attach to a view with WithView
// and migrate to newer views automatically, via the stale-epoch rejects
// replicas return.

// WithView attaches the client to a membership view: its engine picks
// quorums against the view's parameters and stamps operations with its
// epoch, and newer views adopted mid-stream re-target the connections at the
// new members' addresses. The view must carry one address per member, and
// the dial addresses must be the view's (pass v.Addrs, or nil to use them
// implicitly). The quorum system passed to the dial call is superseded by
// the view's; pass v.System().
func WithView(v quorum.View) ClientOption {
	return func(o *clientOpts) { o.view = v; o.hasView = true }
}

// applyView validates the view-mode dial arguments and returns the address
// list to dial (the view's own, when the caller passed nil).
func applyView(o *clientOpts, addrs []string) ([]string, error) {
	if !o.hasView {
		return addrs, nil
	}
	if err := o.view.Validate(); err != nil {
		return nil, fmt.Errorf("tcp: %w", err)
	}
	if len(o.view.Addrs) != len(o.view.Members) {
		return nil, fmt.Errorf("tcp: view epoch %d carries no addresses", o.view.Epoch)
	}
	if addrs == nil {
		return o.view.Addrs, nil
	}
	if len(addrs) != len(o.view.Addrs) {
		return nil, fmt.Errorf("tcp: %d dial addresses for a view of %d members",
			len(addrs), len(o.view.Addrs))
	}
	return addrs, nil
}

// Join pulls a full snapshot — every register entry plus the source's
// current membership view — from an existing member at addr into store.
// Install-if-newer semantics make Join idempotent and safe to run while the
// source keeps serving writes; entries the joiner receives afterwards
// through ordinary quorum writes can only be newer.
//
// A single source is NOT a safe basis for reconfiguration on its own: a
// committed write is guaranteed to sit on a write quorum of the current
// view, not on any one member, so a server seeded only by Join can miss it.
// Use JoinQuorum for the state transfer that precedes a view change; Join
// remains the single-exchange building block (and a repair tool).
func Join(store *replica.Store, addr string, timeout time.Duration) error {
	reply, err := pullSnapshot(addr, timeout)
	if err != nil {
		return err
	}
	store.Install(reply.Entries)
	if reply.View.Epoch != 0 {
		store.SetView(reply.View)
	}
	return nil
}

// JoinQuorum is the reconfiguration-safe state transfer (the RAMBO-style
// discipline): it pulls snapshots from a majority — a read quorum — of the
// view's members and merges them all into store, install-if-newer per
// register. Because every committed write occupies a majority of v, and any
// two majorities of the same view intersect, the merged state holds every
// write committed under v (and under all earlier views, inductively), which
// is what makes the next view's quorums safe regardless of how they overlap
// v's. Run it on every joiner before the view that makes it addressable is
// written — and, when shrinking, on every surviving member of the new view
// too: a new-view majority of survivors can be disjoint from an old write
// quorum.
//
// The merge only captures writes that completed BEFORE it ran. Seal v's
// members (replica.Store.Seal) before calling JoinQuorum, or a write
// finishing on an old-view quorum after the merge can be invisible to every
// quorum of the next view. Sealed stores still answer the snapshot pulls —
// state transfer is exempt — and unseal when the next view is installed, so
// the full discipline is: seal the old view, JoinQuorum the new members,
// then make the new view current everywhere.
//
// Unreachable members are skipped like any silent server; fewer than a
// majority of successful pulls is an error and the transfer must not be
// treated as complete. The error wraps the last pull failure, if any.
func JoinQuorum(store *replica.Store, v quorum.View, timeout time.Duration) error {
	if err := v.Validate(); err != nil {
		return fmt.Errorf("tcp join: %w", err)
	}
	if len(v.Addrs) != len(v.Members) {
		return fmt.Errorf("tcp join: view epoch %d carries no addresses", v.Epoch)
	}
	need := len(v.Members)/2 + 1
	merged := 0
	var lastErr error
	for _, addr := range v.Addrs {
		if merged == need {
			break
		}
		reply, err := pullSnapshot(addr, timeout)
		if err != nil {
			lastErr = err
			continue
		}
		store.Install(reply.Entries)
		if reply.View.Epoch != 0 {
			store.SetView(reply.View)
		}
		merged++
	}
	if merged < need {
		err := fmt.Errorf("tcp join: state transfer reached %d of %d members of view epoch %d, need a majority (%d)",
			merged, len(v.Members), v.Epoch, need)
		if lastErr != nil {
			err = fmt.Errorf("%w (last failure: %w)", err, lastErr)
		}
		return err
	}
	return nil
}

// pullSnapshot performs one SnapReq/SnapReply exchange against addr.
func pullSnapshot(addr string, timeout time.Duration) (msg.SnapReply, error) {
	d := net.Dialer{Timeout: timeout}
	conn, err := d.Dial("tcp", addr)
	if err != nil {
		return msg.SnapReply{}, fmt.Errorf("tcp join %s: %w", addr, err)
	}
	defer conn.Close()
	if timeout > 0 {
		_ = conn.SetDeadline(time.Now().Add(timeout))
	}
	buf := msg.GetEncodeBuf()
	defer msg.PutEncodeBuf(buf)
	out, err := msg.AppendMessage((*buf)[:0], msg.SnapReq{Op: 1})
	if err != nil {
		return msg.SnapReply{}, fmt.Errorf("tcp join %s: encode: %w", addr, err)
	}
	*buf = out[:0]
	if _, err := conn.Write(out); err != nil {
		return msg.SnapReply{}, fmt.Errorf("tcp join %s: send: %w", addr, err)
	}
	m, err := msg.NewFrameReader(conn).Next()
	if err != nil {
		return msg.SnapReply{}, fmt.Errorf("tcp join %s: recv: %w", addr, err)
	}
	reply, ok := m.(msg.SnapReply)
	if !ok {
		return msg.SnapReply{}, fmt.Errorf("tcp join %s: unexpected reply %T", addr, m)
	}
	return reply, nil
}
