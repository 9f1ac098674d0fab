package cluster

import (
	"fmt"

	"probquorum/internal/msg"
	"probquorum/internal/quorum"
	"probquorum/internal/replica"
)

// This file is the cluster runtime's membership seam. Servers join in three
// steps — AddServer (spawn the store and its goroutine), state transfer
// (SyncFromQuorum: merge snapshots from a read quorum of the current view,
// carrying the view register along with the data), and a view write that
// makes the joiner addressable — and leave by simply falling out of the next
// view: clients stop sending to a leaver the moment they adopt the view that
// excludes it, so its queue drains naturally and the goroutine idles. When
// the view shrinks, the survivors run the same quorum sync first (see
// SyncFromQuorum for the safety argument). Clients migrate lazily, via the
// stale-epoch rejects replicas return once they hold a newer view.

// AddServer spawns one additional replica server with the given initial
// register contents (usually nil: joiners take their state by transfer, not
// by fiat) and returns its global server index. The new server is invisible
// to clients until a view that includes it is adopted. Its node id comes from
// the shared id space, so it never collides with a client's.
func (c *Cluster) AddServer(initial map[msg.RegisterID]msg.Value) (int, error) {
	if c.closed.Load() {
		return 0, ErrClosed
	}
	c.mu.Lock()
	idx := len(c.servers)
	id := c.nextID
	c.nextID++
	store := replica.New(id, initial)
	ch := make(chan envelope, 64)
	c.servers = append(c.servers, store)
	c.appliers = append(c.appliers, store)
	c.serverCh = append(c.serverCh, ch)
	c.serverIDs = append(c.serverIDs, id)
	c.mu.Unlock()
	c.wg.Add(1)
	go c.serve(idx, id, ch)
	return idx, nil
}

// InstallView installs v on every current server's store (install-if-newer,
// so it is idempotent and safe to race with the self-hosted spread through
// the view register). It is the admin-side completion of what the ordinary
// write-back path achieves probabilistically: after it returns, every live
// server rejects ops stamped with older epochs, which is what drives
// connected clients to adopt v. Clients attached with views of their own
// still migrate lazily — InstallView touches only servers.
func (c *Cluster) InstallView(v quorum.View) error {
	if err := v.Validate(); err != nil {
		return err
	}
	c.mu.Lock()
	servers := append([]*replica.Store(nil), c.servers...)
	c.mu.Unlock()
	for _, s := range servers {
		s.SetView(v)
	}
	return nil
}

// Transfer copies server from's full register state (including the view
// register, when set) onto server to, install-if-newer per register — the
// in-process form of the state transfer a TCP joiner performs over SnapReq.
//
// A single source is NOT a safe basis for reconfiguration on its own: a
// committed write is guaranteed to sit on a write quorum of the old view,
// not on any one member, so a joiner seeded from one server can miss it and
// a new-view quorum made of such joiners would too. Use SyncFromQuorum for
// the transfer that precedes a view change; Transfer remains the building
// block (and a useful repair tool) it always was.
func (c *Cluster) Transfer(from, to int) error {
	c.mu.Lock()
	if from < 0 || from >= len(c.servers) || to < 0 || to >= len(c.servers) {
		n := len(c.servers)
		c.mu.Unlock()
		return fmt.Errorf("cluster: transfer %d -> %d outside cluster of %d servers", from, to, n)
	}
	src, dst := c.servers[from], c.servers[to]
	c.mu.Unlock()
	dst.Install(src.Snapshot())
	return nil
}

// SyncFromQuorum is the reconfiguration-safe state transfer (the RAMBO-style
// discipline): it merges the register state of a majority — a read quorum —
// of old's members into every target server, install-if-newer per register.
// Because every committed write occupies a majority of the old view, and any
// two majorities of the same view intersect, the merged state holds every
// write committed under old (and under all earlier views, inductively).
// Installing it on the targets before the next view activates is what makes
// the next view's quorums safe regardless of how they overlap old's:
//
//   - Growing, the targets are the joiners: any new-view majority either
//     contains a synced joiner or consists of enough old members to be an
//     old-view intersecting set itself.
//   - Shrinking, the targets must be every member of the new view: a
//     new-view majority can be disjoint from an old write quorum (4-of-7
//     {3,4,5,6} vs 3-of-5 {0,1,2}), so survivors need the merge too.
//
// Crashed members are skipped, like any silent server; fewer than a majority
// of live members is an error and nothing is guaranteed to have transferred
// completely — the caller must not activate the new view. Install-if-newer
// makes the sync idempotent and safe to run while old-view writes continue;
// a write that races it is either caught by the snapshots or still completes
// on the old view, whose quorums remain intact.
func (c *Cluster) SyncFromQuorum(old quorum.View, targets []int) error {
	if err := old.Validate(); err != nil {
		return err
	}
	c.mu.Lock()
	n := len(c.servers)
	sources := make([]*replica.Store, 0, len(old.Members))
	for _, m := range old.Members {
		if int(m) < 0 || int(m) >= n {
			c.mu.Unlock()
			return fmt.Errorf("cluster: view member %d outside cluster of %d servers", m, n)
		}
		sources = append(sources, c.servers[m])
	}
	dsts := make([]*replica.Store, len(targets))
	for i, t := range targets {
		if t < 0 || t >= n {
			c.mu.Unlock()
			return fmt.Errorf("cluster: sync target %d outside cluster of %d servers", t, n)
		}
		dsts[i] = c.servers[t]
	}
	c.mu.Unlock()
	need := len(old.Members)/2 + 1
	merged := 0
	for _, src := range sources {
		if merged == need {
			break
		}
		if src.Crashed() {
			continue
		}
		snap := src.Snapshot()
		sv, hasView := src.View()
		for _, dst := range dsts {
			dst.Install(snap)
			// The installed view travels with the data (as SnapReply.View does
			// on the TCP path): a source whose view arrived by InstallView
			// rather than a ViewKey write has no view entry in its snapshot.
			if hasView {
				dst.SetView(sv)
			}
		}
		merged++
	}
	if merged < need {
		return fmt.Errorf("cluster: state transfer reached %d of %d members of view epoch %d, need a majority (%d)",
			merged, len(old.Members), old.Epoch, need)
	}
	return nil
}
