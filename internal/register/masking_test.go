package register

import (
	"reflect"
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
	s := e.beginWrite(reg, e.stamp(val), nil)
	for _, srv := range s.Quorum {
		rep, ok := c.appliers[srv].Apply(s.Request())
		if !ok {
			continue
		}
		s.OnAck(srv, rep.(msg.WriteAck))
	}
}

func (c *byzCluster) readMasked(e *Engine, reg msg.RegisterID) (msg.Tagged, bool) {
	s := e.beginRead(reg, nil)
	for _, srv := range s.Quorum {
		rep, ok := c.appliers[srv].Apply(s.Request())
		if !ok {
			continue
		}
		s.OnReply(srv, rep.(msg.ReadReply))
	}
	return e.finishReadMasked(s)
}

func TestMaskingDisabledPassesThrough(t *testing.T) {
	c := newByzCluster(3, nil, map[msg.RegisterID]msg.Value{0: "init"})
	e := NewEngine(0, quorum.NewAll(3), rng.New(1))
	if e.maskB != -1 {
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
	s := e.beginRead(0, nil)
	reply := func(srv int, seq uint64, val msg.Value) {
		s.OnReply(srv, msg.ReadReply{Reg: 0, Op: s.Op,
			Tag: msg.Tagged{TS: msg.Timestamp{Seq: seq}, Val: val}})
	}
	reply(0, 2, "old")
	reply(1, 2, "old")
	reply(2, 5, "new")
	reply(3, 5, "new")
	reply(4, 1<<62, "FABRICATED")
	tag, ok := e.finishReadMasked(s)
	if !ok || tag.Val != "new" {
		t.Fatalf("masked result = %v, %v", tag.Val, ok)
	}
}

func TestMaskedReadRequiresIdenticalValues(t *testing.T) {
	// Same timestamp but different values (a Byzantine server mimicking a
	// legitimate timestamp) must not pool votes.
	e := NewEngine(0, quorum.NewAll(3), rng.New(1), Settings{Masking: 1}.variants)
	s := e.beginRead(0, nil)
	s.OnReply(0, msg.ReadReply{Reg: 0, Op: s.Op, Tag: msg.Tagged{TS: msg.Timestamp{Seq: 3}, Val: "real"}})
	s.OnReply(1, msg.ReadReply{Reg: 0, Op: s.Op, Tag: msg.Tagged{TS: msg.Timestamp{Seq: 3}, Val: "forged"}})
	s.OnReply(2, msg.ReadReply{Reg: 0, Op: s.Op, Tag: msg.Tagged{TS: msg.Timestamp{Seq: 1}, Val: "real-old"}})
	if _, ok := e.finishReadMasked(s); ok {
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
// rejects the attempt and the operation retries on a fresh quorum, spending
// budget like a deadline would — and only an honest value is ever returned.
func TestPipelineMaskingRejectionRetries(t *testing.T) {
	c := newByzCluster(3, map[int]bool{0: true}, map[msg.RegisterID]msg.Value{0: "honest"})
	var pl *Keyspace
	send := func(server int, req any) {
		if reply, ok := c.appliers[server].Apply(req); ok {
			DeliverReply(pl, server, reply)
		}
	}
	e := NewEngine(1, quorum.NewProbabilistic(3, 2), rng.Derive(5, "masking.pipeline"), Settings{Masking: 1}.variants)
	pl = NewKeyspace(e, send)
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

// TestVote pins the b-masking vote rule on its own: the largest timestamp
// among the (timestamp, value) pairs with more than b votes, values matched
// by reflect.DeepEqual, and with b = 0 the plain max-timestamp read.
func TestVote(t *testing.T) {
	ts := func(seq uint64, w int32) msg.Timestamp { return msg.Timestamp{Seq: seq, Writer: w} }
	honest := msg.Tagged{TS: ts(3, 0), Val: "honest"}
	fab := msg.Tagged{TS: ts(1<<62, -1), Val: "FABRICATED"}
	tests := []struct {
		name    string
		replies []msg.Tagged
		b       int
		want    msg.Tagged
		wantOK  bool
	}{
		{"unanimous", []msg.Tagged{honest, honest, honest}, 1, honest, true},
		{"b liars fabricate identically", []msg.Tagged{fab, honest, fab, honest, honest}, 2, honest, true},
		{"b+1 liars outvote", []msg.Tagged{fab, honest, fab, fab}, 2, fab, true},
		{"older pair with support beats newer without", []msg.Tagged{
			{TS: ts(5, 1), Val: "new"}, {TS: ts(2, 0), Val: "old"}, {TS: ts(2, 0), Val: "old"}}, 1,
			msg.Tagged{TS: ts(2, 0), Val: "old"}, true},
		{"timestamp tie, values matched deeply", []msg.Tagged{
			{TS: ts(4, 0), Val: []float64{1, 2}}, {TS: ts(4, 0), Val: []float64{9}}, {TS: ts(4, 0), Val: []float64{1, 2}}}, 1,
			msg.Tagged{TS: ts(4, 0), Val: []float64{1, 2}}, true},
		{"timestamp tie, different values split the vote", []msg.Tagged{
			{TS: ts(4, 0), Val: []float64{1, 2}}, {TS: ts(4, 0), Val: []float64{1, 3}}}, 1, msg.Tagged{}, false},
		{"no pair above b", []msg.Tagged{honest, fab, {TS: ts(2, 0), Val: "x"}}, 1, msg.Tagged{}, false},
		{"no replies", nil, 0, msg.Tagged{}, false},
		{"b=0 is the max-timestamp read", []msg.Tagged{honest, fab, {TS: ts(2, 0), Val: "x"}}, 0, fab, true},
		{"b=0 tie goes to the first reply", []msg.Tagged{
			{TS: ts(2, 0), Val: "x"}, {TS: ts(7, 1), Val: "a"}, {TS: ts(7, 1), Val: "b"}}, 0,
			msg.Tagged{TS: ts(7, 1), Val: "a"}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, ok := Vote(tt.replies, tt.b)
			if ok != tt.wantOK || !reflect.DeepEqual(got, tt.want) {
				t.Errorf("Vote(%v, %d) = %v, %v, want %v, %v", tt.replies, tt.b, got, ok, tt.want, tt.wantOK)
			}
			if tt.b != 0 || len(tt.replies) == 0 {
				return
			}
			// The same replies, delivered in order to a read session, pick
			// the same value as the session's running maximum.
			s := NewEngine(0, quorum.NewAll(len(tt.replies)), rng.New(1)).beginRead(0, nil)
			for srv, tag := range tt.replies {
				s.OnReply(srv, msg.ReadReply{Reg: 0, Op: s.Op, Tag: tag})
			}
			if best := s.Best(); !reflect.DeepEqual(got, best) {
				t.Errorf("Vote(_, 0) = %v, the session's max-timestamp read %v", got, best)
			}
		})
	}
}
