package register

import (
	"testing"

	"probquorum/internal/msg"
	"probquorum/internal/quorum"
	"probquorum/internal/rng"
)

// readWithRepair performs a read on the test cluster and applies any repair
// messages the engine issues, mimicking the drivers.
func (c *cluster) readWithRepair(e *Engine, reg msg.RegisterID) msg.Tagged {
	s := e.BeginRead(reg)
	for _, srv := range s.Quorum {
		rep, ok := c.servers[srv].Apply(s.Request())
		if !ok {
			continue
		}
		s.OnReply(srv, rep.(msg.ReadReply))
	}
	tag := e.FinishRead(s)
	if servers, repair := e.RepairTargets(s, tag); len(servers) > 0 {
		for _, srv := range servers {
			c.servers[srv].Apply(repair)
		}
	}
	return tag
}

func TestStaleMembers(t *testing.T) {
	e := NewEngine(0, quorum.NewAll(3), rng.New(1))
	s := e.BeginRead(0)
	s.OnReply(0, msg.ReadReply{Reg: 0, Op: s.Op, Tag: msg.Tagged{TS: msg.Timestamp{Seq: 5}, Val: "new"}})
	s.OnReply(1, msg.ReadReply{Reg: 0, Op: s.Op, Tag: msg.Tagged{TS: msg.Timestamp{Seq: 2}, Val: "old"}})
	s.OnReply(2, msg.ReadReply{Reg: 0, Op: s.Op, Tag: msg.Tagged{TS: msg.Timestamp{Seq: 5}, Val: "new"}})
	stale := s.StaleMembers(s.Best())
	if len(stale) != 1 || stale[0] != 1 {
		t.Fatalf("stale members = %v, want [1]", stale)
	}
}

func TestRepairTargetsDisabledByDefault(t *testing.T) {
	c := newCluster(4, map[msg.RegisterID]msg.Value{0: nil})
	w := NewEngine(0, quorum.NewSingleton(4, 0), rng.New(1))
	c.write(w, 0, "x")
	r := NewEngine(1, quorum.NewAll(4), rng.New(2))
	s := r.BeginRead(0)
	for _, srv := range s.Quorum {
		rep, _ := c.servers[srv].Apply(s.Request())
		s.OnReply(srv, rep.(msg.ReadReply))
	}
	tag := r.FinishRead(s)
	if servers, _ := r.RepairTargets(s, tag); servers != nil {
		t.Fatal("repair issued without WithReadRepair")
	}
	if r.Repairs() != 0 {
		t.Fatal("repair counter moved")
	}
}

func TestReadRepairSpreadsValue(t *testing.T) {
	// Write lands only on server 0. A full read with repair must propagate
	// the value to every other replica.
	c := newCluster(4, map[msg.RegisterID]msg.Value{0: nil})
	w := NewEngine(0, quorum.NewSingleton(4, 0), rng.New(1))
	c.write(w, 0, "spread-me")

	r := NewEngine(1, quorum.NewAll(4), rng.New(2), Settings{ReadRepair: true}.variants)
	got := c.readWithRepair(r, 0)
	if got.Val != "spread-me" {
		t.Fatalf("read = %v", got.Val)
	}
	if r.Repairs() != 3 {
		t.Fatalf("repairs = %d, want 3", r.Repairs())
	}
	for srv := 0; srv < 4; srv++ {
		if got := c.servers[srv].Get(0); got.Val != "spread-me" {
			t.Fatalf("server %d not repaired: %+v", srv, got)
		}
	}
}

func TestReadRepairSkipsInitialValue(t *testing.T) {
	// Reading a register that was never written must not issue repairs:
	// the zero timestamp is everywhere already.
	c := newCluster(3, map[msg.RegisterID]msg.Value{0: "init"})
	r := NewEngine(0, quorum.NewAll(3), rng.New(1), Settings{ReadRepair: true}.variants)
	got := c.readWithRepair(r, 0)
	if got.Val != "init" {
		t.Fatalf("read = %v", got.Val)
	}
	if r.Repairs() != 0 {
		t.Fatalf("repairs = %d for an unwritten register", r.Repairs())
	}
}

func TestReadRepairCannotRegressReplicas(t *testing.T) {
	// A stale repair racing a newer write is dropped by the replicas'
	// timestamp check.
	c := newCluster(3, map[msg.RegisterID]msg.Value{0: nil})
	w := NewEngine(0, quorum.NewSingleton(3, 0), rng.New(1))
	c.write(w, 0, "old")

	r := NewEngine(1, quorum.NewAll(3), rng.New(2), Settings{ReadRepair: true}.variants)
	s := r.BeginRead(0)
	for _, srv := range s.Quorum {
		rep, _ := c.servers[srv].Apply(s.Request())
		s.OnReply(srv, rep.(msg.ReadReply))
	}
	tag := r.FinishRead(s)
	servers, repair := r.RepairTargets(s, tag)

	// Before the repair lands, a newer write reaches every replica.
	wAll := NewEngine(0, quorum.NewAll(3), rng.New(3))
	c.spendWrites(wAll, 1, 4)
	c.write(wAll, 0, "newer")

	for _, srv := range servers {
		c.servers[srv].Apply(repair)
	}
	for srv := 0; srv < 3; srv++ {
		if got := c.servers[srv].Get(0); got.Val != "newer" {
			t.Fatalf("server %d regressed to %v", srv, got.Val)
		}
	}
}
