package register

import (
	"fmt"
	"testing"

	"probquorum/internal/metrics"
	"probquorum/internal/msg"
	"probquorum/internal/quorum"
	"probquorum/internal/replica"
	"probquorum/internal/rng"
)

// cluster is a zero-latency loop-back driver: it completes sessions by
// applying requests to in-process replica stores synchronously. It exercises
// the protocol cores without any runtime underneath.
type cluster struct {
	servers []*replica.Store
}

func newCluster(n int, initial map[msg.RegisterID]msg.Value) *cluster {
	c := &cluster{}
	for i := 0; i < n; i++ {
		c.servers = append(c.servers, replica.New(msg.NodeID(i), initial))
	}
	return c
}

func (c *cluster) read(e *Engine, reg msg.RegisterID) msg.Tagged {
	s := e.BeginRead(reg)
	for _, srv := range s.Quorum {
		rep, ok := c.servers[srv].Apply(s.Request())
		if !ok {
			continue
		}
		s.OnReply(srv, rep.(msg.ReadReply))
	}
	if !s.Done() {
		panic("read session incomplete")
	}
	return e.FinishRead(s)
}

func (c *cluster) write(e *Engine, reg msg.RegisterID, val msg.Value) msg.Tagged {
	s := e.BeginWrite(reg, val)
	c.complete(s)
	return s.Tag
}

// complete delivers every quorum member's acknowledgment of s.
func (c *cluster) complete(s *WriteSession) {
	for _, srv := range s.Quorum {
		rep, ok := c.servers[srv].Apply(s.Request())
		if !ok {
			continue
		}
		s.OnAck(srv, rep.(msg.WriteAck))
	}
	if !s.Done() {
		panic("write session incomplete")
	}
}

func fullOverlap(n int) quorum.System { return quorum.NewAll(n) }

func TestReadReturnsLatestWriteUnderFullOverlap(t *testing.T) {
	c := newCluster(5, map[msg.RegisterID]msg.Value{0: "init"})
	e := NewEngine(0, fullOverlap(5), rng.New(1))
	if got := c.read(e, 0); got.Val != "init" {
		t.Fatalf("initial read = %v", got.Val)
	}
	for i := 1; i <= 10; i++ {
		c.write(e, 0, i)
		got := c.read(e, 0)
		if got.Val != i {
			t.Fatalf("read after write %d = %v", i, got.Val)
		}
		if got.TS.Seq != uint64(i) {
			t.Fatalf("timestamp after write %d = %v", i, got.TS)
		}
	}
}

// writeMulti is a multi-writer write: a read round for the register's
// current timestamp, then a write round one past it.
func (c *cluster) writeMulti(e *Engine, reg msg.RegisterID, val msg.Value) msg.Tagged {
	cur := c.read(e, reg)
	s := e.BeginWriteWithTS(reg, msg.Tagged{TS: e.NextMultiWriterTS(cur.TS), Val: val})
	c.complete(s)
	return s.Tag
}

// spendWrites advances e's write counter by n with writes to register reg.
func (c *cluster) spendWrites(e *Engine, reg msg.RegisterID, n int) {
	for i := 0; i < n; i++ {
		c.write(e, reg, nil)
	}
}

// TestWriteTimestampProperties interleaves one writer's writes to several
// registers — plain, multi-writer, retried, and atomic-read write-backs,
// among another client's multi-writer writes — and checks the timestamp rule
// the replicas rely on: per (register, writer), a new write's timestamp
// strictly exceeds the writer's earlier ones, one timestamp never carries two
// values, and no acknowledged write is lost under an older timestamp of its
// own writer.
func TestWriteTimestampProperties(t *testing.T) {
	// Steps: 'w' write, 'm' multi-writer write, 'r' write retried after its
	// first attempt reached one member, 'a' atomic read with write-back, 'x'
	// multi-writer write whose read round runs before a plain write to the
	// register and whose write round after it, 'o' the other client's
	// multi-writer write.
	tests := []struct {
		name  string
		steps string
		regs  string // register of each step
	}{
		{"plain across registers", "wwwwww", "010210"},
		{"plain after multi", "mmmwwmw", "0000111"},
		{"one multi then plain", "mw", "00"},
		{"retried", "wrrwr", "00110"},
		{"write-backs", "oawaoaw", "0000111"},
		{"multi round around a plain write", "xwx", "000"},
		{"mixed", "mwraomwxwrao", "010101012021"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if len(tt.steps) != len(tt.regs) {
				t.Fatalf("steps %q and regs %q differ in length", tt.steps, tt.regs)
			}
			c := newCluster(3, map[msg.RegisterID]msg.Value{0: nil, 1: nil, 2: nil})
			e := NewEngine(1, fullOverlap(3), rng.New(1))
			other := NewEngine(2, fullOverlap(3), rng.New(2))

			type key struct {
				reg    msg.RegisterID
				writer int32
			}
			last := make(map[key]msg.Timestamp)
			vals := make(map[msg.RegisterID]map[msg.Timestamp]msg.Value)
			install := func(reg msg.RegisterID, tag msg.Tagged, fresh bool) {
				k := key{reg, tag.TS.Writer}
				if fresh {
					if prev, ok := last[k]; ok && !prev.Less(tag.TS) {
						t.Fatalf("writer %d stamped reg %d %v after %v", k.writer, reg, tag.TS, prev)
					}
					last[k] = tag.TS
				}
				if vals[reg] == nil {
					vals[reg] = make(map[msg.Timestamp]msg.Value)
				}
				if v, ok := vals[reg][tag.TS]; ok && v != tag.Val {
					t.Fatalf("reg %d: timestamp %v carries %v and %v", reg, tag.TS, v, tag.Val)
				}
				vals[reg][tag.TS] = tag.Val
				if got := c.read(NewEngine(9, fullOverlap(3), rng.New(9)), reg); got.TS.Writer == tag.TS.Writer && got != tag {
					t.Fatalf("reg %d: acknowledged write %v lost to %v", reg, tag, got)
				}
			}
			for i, step := range tt.steps {
				reg := msg.RegisterID(tt.regs[i] - '0')
				val := fmt.Sprintf("%c%d", step, i)
				switch step {
				case 'w':
					install(reg, c.write(e, reg, val), true)
				case 'm':
					install(reg, c.writeMulti(e, reg, val), true)
				case 'o':
					install(reg, c.writeMulti(other, reg, val), true)
				case 'r':
					s := e.BeginWrite(reg, val)
					rep, _ := c.servers[s.Quorum[0]].Apply(s.Request())
					s.OnAck(s.Quorum[0], rep.(msg.WriteAck))
					retry := e.RetryWrite(s)
					if retry.Tag != s.Tag {
						t.Fatalf("retry re-stamped %v as %v", s.Tag, retry.Tag)
					}
					c.complete(retry)
					install(reg, retry.Tag, true)
				case 'a':
					got := c.read(e, reg)
					s := e.BeginWriteWithTS(reg, got)
					c.complete(s)
					install(reg, s.Tag, false)
				case 'x':
					cur := c.read(e, reg)
					install(reg, c.write(e, reg, val+"-plain"), true)
					s := e.BeginWriteWithTS(reg, msg.Tagged{TS: e.NextMultiWriterTS(cur.TS), Val: val})
					c.complete(s)
					install(reg, s.Tag, true)
				default:
					t.Fatalf("unknown step %q", step)
				}
			}
		})
	}
}

func TestReadSessionIgnoresForeignAndDuplicateReplies(t *testing.T) {
	e := NewEngine(0, quorum.NewProbabilistic(6, 3), rng.New(2))
	s := e.BeginRead(0)
	srv := s.Quorum[0]
	// Foreign op id.
	s.OnReply(srv, msg.ReadReply{Reg: 0, Op: s.Op + 99, Tag: msg.Tagged{TS: msg.Timestamp{Seq: 9}, Val: "x"}})
	if s.nrep != 0 {
		t.Fatal("foreign reply accepted")
	}
	// Real reply.
	s.OnReply(srv, msg.ReadReply{Reg: 0, Op: s.Op, Tag: msg.Tagged{TS: msg.Timestamp{Seq: 1}, Val: "a"}})
	// Duplicate with a bigger timestamp must not double-count or be absorbed.
	s.OnReply(srv, msg.ReadReply{Reg: 0, Op: s.Op, Tag: msg.Tagged{TS: msg.Timestamp{Seq: 5}, Val: "b"}})
	if s.nrep != 1 {
		t.Fatal("duplicate reply changed completion state")
	}
	if s.Best().Val != "a" {
		t.Fatal("duplicate reply was absorbed")
	}
	if s.Done() {
		t.Fatal("session complete after 1 of 3 replies")
	}
}

func TestWriteSessionCompletion(t *testing.T) {
	e := NewEngine(0, quorum.NewProbabilistic(6, 3), rng.New(3))
	s := e.BeginWrite(0, "v")
	for i, srv := range s.Quorum {
		done := s.OnAck(srv, msg.WriteAck{Reg: 0, Op: s.Op})
		if want := i == len(s.Quorum)-1; done != want {
			t.Fatalf("after ack %d: done=%v", i, done)
		}
	}
	// Duplicate ack keeps it done.
	if !s.OnAck(s.Quorum[0], msg.WriteAck{Reg: 0, Op: s.Op}) {
		t.Fatal("duplicate ack undid completion")
	}
}

func TestMonotoneCacheServesNewerValue(t *testing.T) {
	// Two engines on a 2-server cluster with singleton quorums: writes go to
	// server 0 or 1 depending on the system. Reader reads from server 1 only,
	// so it would never see writes applied to server 0 — unless the monotone
	// cache preserves what it has already seen.
	c := newCluster(2, map[msg.RegisterID]msg.Value{0: "init"})
	writerToBoth := NewEngine(0, quorum.NewAll(2), rng.New(1))
	writerTo0 := NewEngine(0, quorum.NewSingleton(2, 0), rng.New(1))
	readerFrom1 := NewEngine(1, quorum.NewSingleton(2, 1), rng.New(1), Settings{Monotone: true}.variants)

	// Write "fresh" to both servers; reader sees it.
	c.write(writerToBoth, 0, "fresh")
	if got := c.read(readerFrom1, 0); got.Val != "fresh" {
		t.Fatalf("read = %v", got.Val)
	}
	// Overwrite only server 0 with a *newer* value. Reader's quorum (server 1)
	// still holds the old one; non-monotone would return "fresh" again —
	// fine — but now wipe server 1 back by crashing? Instead check the
	// reverse: reader must never go back before "fresh".
	c.spendWrites(writerTo0, 1, 4) // jump the writer's clock so ts exceeds everything
	c.write(writerTo0, 0, "newest")
	got := c.read(readerFrom1, 0)
	if got.Val != "fresh" {
		t.Fatalf("reader's quorum can't see newest; want cached fresh, got %v", got.Val)
	}
	if readerFrom1.CacheHits() != 0 {
		t.Fatal("equal-timestamp re-read should not count as cache hit")
	}
}

func TestMonotoneNeverRegresses(t *testing.T) {
	// Randomized: tiny quorums (k=1) over 8 servers make stale reads common.
	// The monotone engine must return non-decreasing timestamps; a
	// non-monotone engine over the same execution pattern typically
	// regresses (checked as a sanity condition on the test itself).
	const n, writes = 8, 200
	sys := quorum.NewProbabilistic(n, 1)
	c := newCluster(n, map[msg.RegisterID]msg.Value{0: nil})
	w := NewEngine(0, sys, rng.New(10))
	mono := NewEngine(1, sys, rng.New(11), Settings{Monotone: true}.variants)
	plain := NewEngine(2, sys, rng.New(12))

	var lastMono msg.Timestamp
	plainRegressed := false
	var lastPlain msg.Timestamp
	for i := 0; i < writes; i++ {
		c.write(w, 0, i)
		gm := c.read(mono, 0)
		if gm.TS.Less(lastMono) {
			t.Fatalf("monotone read regressed: %v after %v", gm.TS, lastMono)
		}
		lastMono = gm.TS
		gp := c.read(plain, 0)
		if gp.TS.Less(lastPlain) {
			plainRegressed = true
		}
		lastPlain = gp.TS
	}
	if !plainRegressed {
		t.Fatal("test not discriminating: non-monotone engine never regressed with k=1")
	}
	if mono.CacheHits() == 0 {
		t.Fatal("monotone cache never used with k=1; expected hits")
	}
}

func TestObserveOwnWrite(t *testing.T) {
	// A monotone writer must not read values older than its own last write,
	// even when its read quorum misses its write quorum.
	c := newCluster(4, map[msg.RegisterID]msg.Value{0: nil})
	// Writes go to servers {0,1}; reads come from servers {2,3}.
	w := NewEngine(0, quorum.NewGrid(2, 2), rng.New(1), Settings{Monotone: true}.variants)
	// Hand-roll: write via grid (covers a row+column = 3 servers); then read
	// via singleton on the untouched server.
	tag := c.write(w, 0, "mine")
	reader := NewEngine(0, quorum.NewSingleton(4, untouched(tag, 4, c)), rng.New(1), Settings{Monotone: true}.variants)
	reader.observeOwnWrite(0, tag)
	got := c.read(reader, 0)
	if got.Val != "mine" {
		t.Fatalf("own write not observed: %v", got.Val)
	}
	if reader.CacheHits() != 1 {
		t.Fatalf("cache hits = %d, want 1", reader.CacheHits())
	}
}

// untouched returns a server index whose replica still has the zero
// timestamp (i.e. the write did not reach it).
func untouched(tag msg.Tagged, n int, c *cluster) int {
	for i := 0; i < n; i++ {
		if c.servers[i].Get(0).TS.IsZero() {
			return i
		}
	}
	return 0
}

func TestNonMonotoneHasNoCache(t *testing.T) {
	e := NewEngine(0, quorum.NewAll(2), rng.New(1))
	e.observeOwnWrite(0, msg.Tagged{TS: msg.Timestamp{Seq: 9}, Val: "x"})
	if len(e.cache) != 0 {
		t.Fatal("non-monotone engine must not populate a cache")
	}
	if e.monotone {
		t.Fatal("engine reports monotone")
	}
}

func TestMultiWriterTimestamps(t *testing.T) {
	c := newCluster(3, map[msg.RegisterID]msg.Value{0: nil})
	e1 := NewEngine(1, quorum.NewAll(3), rng.New(1))
	e2 := NewEngine(2, quorum.NewAll(3), rng.New(2))

	// Writer 1 writes; writer 2 reads-modifies-writes with a larger ts.
	mwWrite := func(e *Engine, val msg.Value) msg.Tagged {
		cur := c.read(e, 0)
		tag := msg.Tagged{TS: e.NextMultiWriterTS(cur.TS), Val: val}
		s := e.BeginWriteWithTS(0, tag)
		for _, srv := range s.Quorum {
			rep, _ := c.servers[srv].Apply(s.Request())
			s.OnAck(srv, rep.(msg.WriteAck))
		}
		return tag
	}
	t1 := mwWrite(e1, "a")
	t2 := mwWrite(e2, "b")
	t3 := mwWrite(e1, "c")
	if !t1.TS.Less(t2.TS) || !t2.TS.Less(t3.TS) {
		t.Fatalf("multi-writer timestamps not increasing: %v %v %v", t1.TS, t2.TS, t3.TS)
	}
	if got := c.read(e2, 0); got.Val != "c" {
		t.Fatalf("final value = %v, want c", got.Val)
	}
}

func TestEngineTallyAndMessageCounter(t *testing.T) {
	var msgs metrics.Counter
	tally := metrics.NewAccessTally(6)
	e := NewEngine(0, quorum.NewProbabilistic(6, 2), rng.New(5),
		Settings{Tally: tally}.variants, WithMessageCounter(&msgs))
	c := newCluster(6, map[msg.RegisterID]msg.Value{0: nil})
	c.write(e, 0, 1)
	c.read(e, 0)
	if got := tally.Total(); got != 2 {
		t.Fatalf("tally ops = %d, want 2", got)
	}
	// Each op: 2 requests + 2 replies = 4 messages.
	if got := msgs.Value(); got != 8 {
		t.Fatalf("messages = %d, want 8", got)
	}
}
