package register

import (
	"testing"

	"probquorum/internal/msg"
	"probquorum/internal/quorum"
	"probquorum/internal/replica"
	"probquorum/internal/rng"
)

// byzCluster is the loop-back driver with some servers replaced by
// Byzantine wrappers.
type byzCluster struct {
	appliers []replica.Applier
}

func newByzCluster(n int, byzantine map[int]bool, initial map[msg.RegisterID]msg.Value) *byzCluster {
	c := &byzCluster{}
	for i := 0; i < n; i++ {
		store := replica.New(msg.NodeID(i), initial)
		if byzantine[i] {
			c.appliers = append(c.appliers, replica.NewByzantine(store, "FABRICATED"))
		} else {
			c.appliers = append(c.appliers, store)
		}
	}
	return c
}

func (c *byzCluster) write(e *Engine, reg msg.RegisterID, val msg.Value) {
	s := e.BeginWrite(reg, val)
	for _, srv := range s.Quorum {
		rep, ok := c.appliers[srv].Apply(s.Request())
		if !ok {
			continue
		}
		s.OnAck(srv, rep.(msg.WriteAck))
	}
}

func (c *byzCluster) readMasked(e *Engine, reg msg.RegisterID) (msg.Tagged, bool) {
	s := e.BeginRead(reg)
	for _, srv := range s.Quorum {
		rep, ok := c.appliers[srv].Apply(s.Request())
		if !ok {
			continue
		}
		s.OnReply(srv, rep.(msg.ReadReply))
	}
	return e.FinishReadMasked(s)
}

func TestMaskingDisabledPassesThrough(t *testing.T) {
	c := newByzCluster(3, nil, map[msg.RegisterID]msg.Value{0: "init"})
	e := NewEngine(0, quorum.NewAll(3), rng.New(1))
	if e.MaskingEnabled() || e.MaskB() != -1 {
		t.Fatal("masking enabled by default")
	}
	tag, ok := c.readMasked(e, 0)
	if !ok || tag.Val != "init" {
		t.Fatalf("pass-through read = %v, %v", tag.Val, ok)
	}
}

func TestUnmaskedReadIsFooledByByzantine(t *testing.T) {
	// Sanity: without masking, a single Byzantine server hijacks the read
	// via its enormous timestamp — the attack masking exists to stop.
	c := newByzCluster(4, map[int]bool{3: true}, map[msg.RegisterID]msg.Value{0: nil})
	w := NewEngine(0, quorum.NewAll(4), rng.New(1))
	c.write(w, 0, "honest")
	r := NewEngine(1, quorum.NewAll(4), rng.New(2))
	tag, _ := c.readMasked(r, 0)
	if tag.Val != "FABRICATED" {
		t.Fatalf("expected the fabrication to win unmasked, got %v", tag.Val)
	}
}

func TestMaskedReadDefeatsByzantine(t *testing.T) {
	// One Byzantine server, b = 1: its singleton vote can never win.
	c := newByzCluster(4, map[int]bool{3: true}, map[msg.RegisterID]msg.Value{0: nil})
	w := NewEngine(0, quorum.NewAll(4), rng.New(1))
	c.write(w, 0, "honest")
	r := NewEngine(1, quorum.NewAll(4), rng.New(2), Settings{Masking: 1}.variants)
	tag, ok := c.readMasked(r, 0)
	if !ok {
		t.Fatal("masked read failed with 3 honest votes available")
	}
	if tag.Val != "honest" {
		t.Fatalf("masked read returned %v", tag.Val)
	}
}

func TestMaskedReadFailsWithoutEnoughVotes(t *testing.T) {
	// Quorum of 2 with b=1 can never produce 2 identical votes when one
	// member is Byzantine.
	c := newByzCluster(2, map[int]bool{1: true}, map[msg.RegisterID]msg.Value{0: nil})
	w := NewEngine(0, quorum.NewSingleton(2, 0), rng.New(1))
	c.write(w, 0, "honest")
	r := NewEngine(1, quorum.NewAll(2), rng.New(2), Settings{Masking: 1}.variants)
	if _, ok := c.readMasked(r, 0); ok {
		t.Fatal("masked read succeeded with only one honest vote")
	}
}

func TestMaskedReadPicksNewestQualifiedValue(t *testing.T) {
	// Hand-rolled replies: two votes for ts 2, two for ts 5, one byzantine
	// giant. With b=1, ts 5 qualifies and wins.
	e := NewEngine(0, quorum.NewAll(5), rng.New(1), Settings{Masking: 1}.variants)
	s := e.BeginRead(0)
	reply := func(srv int, seq uint64, val msg.Value) {
		s.OnReply(srv, msg.ReadReply{Reg: 0, Op: s.Op,
			Tag: msg.Tagged{TS: msg.Timestamp{Seq: seq}, Val: val}})
	}
	reply(0, 2, "old")
	reply(1, 2, "old")
	reply(2, 5, "new")
	reply(3, 5, "new")
	reply(4, 1<<62, "FABRICATED")
	tag, ok := e.FinishReadMasked(s)
	if !ok || tag.Val != "new" {
		t.Fatalf("masked result = %v, %v", tag.Val, ok)
	}
}

func TestMaskedReadRequiresIdenticalValues(t *testing.T) {
	// Same timestamp but different values (a Byzantine server mimicking a
	// legitimate timestamp) must not pool votes.
	e := NewEngine(0, quorum.NewAll(3), rng.New(1), Settings{Masking: 1}.variants)
	s := e.BeginRead(0)
	s.OnReply(0, msg.ReadReply{Reg: 0, Op: s.Op, Tag: msg.Tagged{TS: msg.Timestamp{Seq: 3}, Val: "real"}})
	s.OnReply(1, msg.ReadReply{Reg: 0, Op: s.Op, Tag: msg.Tagged{TS: msg.Timestamp{Seq: 3}, Val: "forged"}})
	s.OnReply(2, msg.ReadReply{Reg: 0, Op: s.Op, Tag: msg.Tagged{TS: msg.Timestamp{Seq: 1}, Val: "real-old"}})
	if _, ok := e.FinishReadMasked(s); ok {
		t.Fatal("split votes pooled by timestamp alone")
	}
}

func TestMaskedMonotoneCacheInteraction(t *testing.T) {
	// Successful masked reads feed the monotone cache; the cache can then
	// serve values fresher than a later impoverished quorum.
	c := newByzCluster(4, nil, map[msg.RegisterID]msg.Value{0: nil})
	w := NewEngine(0, quorum.NewAll(4), rng.New(1))
	c.write(w, 0, "v1")
	r := NewEngine(1, quorum.NewAll(4), rng.New(2), Settings{Masking: 1, Monotone: true}.variants)
	tag, ok := c.readMasked(r, 0)
	if !ok || tag.Val != "v1" {
		t.Fatalf("first masked read = %v, %v", tag.Val, ok)
	}
	// Slice values: DeepEqual grouping must handle non-comparable types.
	c.write(w, 0, []float64{1, 2})
	tag, ok = c.readMasked(r, 0)
	if !ok {
		t.Fatal("masked read of slice value failed")
	}
	if row, isRow := tag.Val.([]float64); !isRow || row[1] != 2 {
		t.Fatalf("slice value = %v", tag.Val)
	}
}

// TestPipelineMaskingRejectionRetries: a pipelined masked read whose quorum
// meets the Byzantine server has no tag with b+1 votes, so the vote count
// rejects the attempt and the Operation retries on a fresh quorum, spending
// budget like a deadline would — and only an honest value is ever returned.
func TestPipelineMaskingRejectionRetries(t *testing.T) {
	c := newByzCluster(3, map[int]bool{0: true}, map[msg.RegisterID]msg.Value{0: "honest"})
	var pl *Pipeline
	send := func(server int, req any) {
		if reply, ok := c.appliers[server].Apply(req); ok {
			DeliverReply(pl, server, reply)
		}
	}
	e := NewEngine(1, quorum.NewProbabilistic(3, 2), rng.Derive(5, "masking.pipeline"), Settings{Masking: 1}.variants)
	pl = NewPipeline(e, send)
	for i := 0; i < 30; i++ {
		tag, err := pl.Read(0)
		if err != nil {
			t.Fatal(err)
		}
		if tag.Val != "honest" {
			t.Fatalf("masked pipelined read returned %v", tag.Val)
		}
	}
	if pl.Retries() == 0 {
		t.Fatal("30 reads of 2 of 3 servers never met the Byzantine one and retried")
	}
}
