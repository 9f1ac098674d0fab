package tcp

// The reconfiguration-safe state transfer: JoinQuorum merges a read quorum
// of the outgoing view, so it cannot miss a write committed on any write
// quorum of that view, and it refuses when no majority answers.

import (
	"strings"
	"testing"
	"time"

	"probquorum/internal/msg"
	"probquorum/internal/quorum"
	"probquorum/internal/replica"
)

// viewCluster launches n loopback servers, installs a view of all of them
// at epoch, and returns the view and the servers.
func viewCluster(t *testing.T, n int, epoch quorum.Epoch) (quorum.View, []*Server) {
	t.Helper()
	addrs, servers := pipeCluster(t, n, nil)
	v := quorum.View{Epoch: epoch, Members: make([]int32, n), Addrs: addrs}
	for i := range v.Members {
		v.Members[i] = int32(i)
	}
	for _, srv := range servers {
		srv.Store().SetView(v)
	}
	return v, servers
}

// plant installs tag for reg on the listed servers only: a write committed
// on that quorum and absent everywhere else.
func plant(servers []*Server, reg msg.RegisterID, tag msg.Tagged, on ...int) {
	for _, s := range on {
		servers[s].Store().Install([]msg.SnapEntry{{Reg: reg, Tag: tag}})
	}
}

// TestJoinQuorumCoversCommittedWrites is the regression test for the
// reconfiguration safety bug: a committed write is only guaranteed to sit on
// a write quorum of the old view, so seeding a joiner from a single member
// can miss it, and a new-view quorum made of such joiners would read
// stale data. JoinQuorum merges a majority, which must intersect the write
// quorum.
func TestJoinQuorumCoversCommittedWrites(t *testing.T) {
	v1, servers := viewCluster(t, 5, 1)
	// A write committed on the quorum {2,3,4}: acked by a 3-of-5 majority,
	// but absent from servers 0 and 1 (a crashed message, a slow link — the
	// protocol does not care why).
	committed := msg.Tagged{TS: msg.Timestamp{Seq: 7, Writer: 0}, Val: "survives"}
	plant(servers, 9, committed, 2, 3, 4)

	// A joiner seeded the unsafe way (single-member transfer from server 0)
	// misses the write entirely — this is the failure mode, kept pinned so
	// the distinction stays visible.
	lone := replica.New(5, nil)
	reply, err := pullSnapshot(v1.Addrs[0], time.Second)
	if err != nil {
		t.Fatal(err)
	}
	lone.Install(reply.Entries)
	if got := lone.Get(9); got.Val != nil {
		t.Fatalf("single-member transfer from server 0 unexpectedly carried the write: %#v", got)
	}

	// The quorum merge cannot miss it: any majority of {0..4} intersects
	// {2,3,4}, even one that starts with servers 0 and 1.
	for _, j := range []*replica.Store{replica.New(5, nil), replica.New(6, nil)} {
		if err := JoinQuorum(j, v1, time.Second); err != nil {
			t.Fatal(err)
		}
		if got := j.Get(9); got != committed {
			t.Errorf("joiner after JoinQuorum holds %#v, want the committed write", got)
		}
		if e := j.Epoch(); e != 1 {
			t.Errorf("joiner synced epoch %d, want 1 (the view rides along)", e)
		}
	}
}

// TestJoinQuorumShrink pins the shrink-side discipline: a write committed on
// a quorum of the large view that happens to avoid every survivor must reach
// the survivors through the merge before the small view activates.
func TestJoinQuorumShrink(t *testing.T) {
	v2, servers := viewCluster(t, 7, 2)
	// Committed on the 4-of-7 write quorum {3,4,5,6} — disjoint from the
	// surviving trio {0,1,2} the next view keeps.
	committed := msg.Tagged{TS: msg.Timestamp{Seq: 3, Writer: 1}, Val: int64(42)}
	plant(servers, 4, committed, 3, 4, 5, 6)
	for s := 0; s < 3; s++ {
		st := servers[s].Store()
		if err := JoinQuorum(st, v2, time.Second); err != nil {
			t.Fatal(err)
		}
		if got := st.Get(4); got != committed {
			t.Errorf("survivor %d holds %#v after the merge, want the committed write", s, got)
		}
	}
}

// TestJoinQuorumNeedsMajority pins the failure contract: with only a
// minority of the old view reachable — crashed members, or closed ones — the
// transfer refuses, and its error names the missing majority. Activating the
// next view on a partial transfer would be exactly the unsafe
// reconfiguration the primitive exists to prevent.
func TestJoinQuorumNeedsMajority(t *testing.T) {
	v1, servers := viewCluster(t, 5, 1)
	servers[0].Store().Crash()
	servers[1].Store().Crash()
	servers[4].Close()
	err := JoinQuorum(replica.New(5, nil), v1, time.Second)
	if err == nil {
		t.Fatal("JoinQuorum succeeded with 2 of 5 members reachable")
	}
	if !strings.Contains(err.Error(), "need a majority (3)") {
		t.Errorf("error does not name the missing majority: %v", err)
	}
	if err := JoinQuorum(replica.New(5, nil), quorum.View{}, time.Second); err == nil {
		t.Error("invalid view accepted")
	}
	noAddrs := v1
	noAddrs.Addrs = nil
	if err := JoinQuorum(replica.New(5, nil), noAddrs, time.Second); err == nil {
		t.Error("view without addresses accepted")
	}
}
