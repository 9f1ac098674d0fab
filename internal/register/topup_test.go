package register

import (
	"errors"
	"reflect"
	"testing"

	"probquorum/internal/msg"
	"probquorum/internal/quorum"
	"probquorum/internal/rng"
	"probquorum/internal/transport"
)

func tagged(seq uint64, val msg.Value) msg.Tagged {
	return msg.Tagged{TS: msg.Timestamp{Seq: seq, Writer: 1}, Val: val}
}

// TestSessionReplace drives one read session over servers {0,1,2} through a
// table of replacements: a position that has answered, an out-of-range
// position and a server already in the quorum are refused and leave the
// session untouched; a legal one swaps the member and nothing else.
func TestSessionReplace(t *testing.T) {
	for _, tc := range []struct {
		name       string
		replied    []int // servers answering before the replacement
		pos, with  int
		wantOK     bool
		wantQuorum []int
	}{
		{"pending position", []int{0}, 1, 4, true, []int{0, 4, 2}},
		{"position already replied", []int{0, 1}, 1, 4, false, []int{0, 1, 2}},
		{"server already a member", nil, 1, 2, false, []int{0, 1, 2}},
		{"replacing a member by itself", nil, 1, 1, false, []int{0, 1, 2}},
		{"negative position", nil, -1, 4, false, []int{0, 1, 2}},
		{"position past the quorum", nil, 3, 4, false, []int{0, 1, 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := &readSession{Reg: 7, Op: 9, fanout: fanout{Quorum: []int{0, 1, 2}},
				tags: make([]msg.Tagged, 3), unanimous: true}
			for _, srv := range tc.replied {
				s.OnReply(srv, msg.ReadReply{Reg: 7, Op: 9, Tag: tagged(1, "a")})
			}
			before := s.nrep
			if got := s.Replace(tc.pos, tc.with); got != tc.wantOK {
				t.Fatalf("Replace(%d, %d) = %v, want %v", tc.pos, tc.with, got, tc.wantOK)
			}
			if !reflect.DeepEqual(s.Quorum, tc.wantQuorum) {
				t.Fatalf("quorum = %v, want %v", s.Quorum, tc.wantQuorum)
			}
			if s.nrep != before {
				t.Fatalf("reply count moved from %d to %d", before, s.nrep)
			}
		})
	}
}

// TestSessionBookkeepingAcrossReplace: the per-position state — Best,
// Unanimous, StaleMembers — is that of the members that actually answered,
// before and after a replacement, and the replaced member's late reply is a
// stranger's.
func TestSessionBookkeepingAcrossReplace(t *testing.T) {
	s := &readSession{Reg: 1, Op: 5, fanout: fanout{Quorum: []int{0, 1, 2}},
		tags: make([]msg.Tagged, 3), unanimous: true}
	reply := func(srv int, tag msg.Tagged) bool {
		return s.OnReply(srv, msg.ReadReply{Reg: 1, Op: 5, Tag: tag})
	}
	reply(0, tagged(3, "new"))
	if !s.Replace(1, 4) {
		t.Fatal("replacing a silent member refused")
	}
	if reply(1, tagged(9, "late")) || s.nrep != 1 || s.Best().TS.Seq != 3 {
		t.Fatalf("the replaced member's late reply was absorbed: nrep=%d best=%v", s.nrep, s.Best())
	}
	if !s.Unanimous() {
		t.Fatal("one reply is not unanimous")
	}
	reply(4, tagged(2, "old"))
	if s.Unanimous() {
		t.Fatal("replies with different timestamps reported unanimous")
	}
	if !reply(2, tagged(3, "new")) {
		t.Fatal("session not done after three distinct members answered")
	}
	if got := s.Best(); got.TS.Seq != 3 || got.Val != "new" {
		t.Fatalf("Best = %v", got)
	}
	if got := s.StaleMembers(s.Best()); !reflect.DeepEqual(got, []int{4}) {
		t.Fatalf("StaleMembers = %v, want the replacement [4]", got)
	}

	w := &writeSession{Reg: 1, Op: 6, fanout: fanout{Quorum: []int{0, 1, 2}}}
	w.OnAck(2, msg.WriteAck{Reg: 1, Op: 6})
	if w.Replace(2, 3) {
		t.Fatal("write session replaced a member that had acknowledged")
	}
	if !w.Replace(0, 3) || w.OnAck(0, msg.WriteAck{Reg: 1, Op: 6}) {
		t.Fatal("replaced member's late ack counted")
	}
	w.OnAck(3, msg.WriteAck{Reg: 1, Op: 6})
	if !w.OnAck(1, msg.WriteAck{Reg: 1, Op: 6}) {
		t.Fatal("write session not done after three distinct members acknowledged")
	}
}

func faultAwareEngine(sys quorum.System, opts ...Option) *Engine {
	e := NewEngine(1, sys, rng.New(3), opts...)
	e.health = transport.NewHealth(sys.N())
	return e
}

// TestTopUpDrawsOutsideAttemptAndSuspects: the replacement is never a member
// and never a suspect, every candidate is reachable, and once none is left
// the top-up refuses.
func TestTopUpDrawsOutsideAttemptAndSuspects(t *testing.T) {
	e := faultAwareEngine(quorum.NewMajority(7))
	lost := errors.New("lost")
	seen := map[int]bool{}
	for i := 0; i < 400; i++ {
		s := e.beginRead(0, nil)
		members := append([]int(nil), s.Quorum...)
		e.health.Suspect(members[0], lost)
		// Of the three outsiders one is suspected too; the other two are
		// the candidates.
		outsiders := []int{}
		for srv := 0; srv < 7; srv++ {
			if pos(members, srv) < 0 {
				outsiders = append(outsiders, srv)
			}
		}
		suspect := outsiders[i%3]
		e.health.Suspect(suspect, lost)
		got, ok := e.topUp(&s.fanout, 0)
		if !ok {
			t.Fatalf("top-up refused with two of the outsiders %v unsuspected", outsiders)
		}
		if pos(outsiders, got) < 0 || got == suspect {
			t.Fatalf("replacement %d is a member of %v or the suspect %d", got, members, suspect)
		}
		if s.Quorum[0] != got {
			t.Fatalf("quorum %v does not hold the replacement %d", s.Quorum, got)
		}
		seen[got] = true
		e.release(s, nil)
		for srv := 0; srv < 7; srv++ {
			e.health.Clear(srv)
		}
	}
	if len(seen) != 7 {
		t.Fatalf("replacements only ever landed on %v", seen)
	}

	s := e.beginWrite(0, e.stamp("v"), nil)
	for srv := 0; srv < 7; srv++ {
		if pos(s.Quorum, srv) < 0 {
			e.health.Suspect(srv, lost)
		}
	}
	if _, ok := e.topUp(&s.fanout, 1); ok {
		t.Fatal("top-up found a replacement with every outsider suspected")
	}
}

// TestTopUpOnlyWhereSound: top-up is refused for systems with structure, for
// b-masking engines, for engines without a suspicion table, and for a session
// picked under an older view.
func TestTopUpOnlyWhereSound(t *testing.T) {
	for _, tc := range []struct {
		name string
		e    *Engine
		want bool
	}{
		{"majority", faultAwareEngine(quorum.NewMajority(5)), true},
		{"probabilistic", faultAwareEngine(quorum.NewProbabilistic(9, 3)), true},
		{"asymmetric probabilistic", faultAwareEngine(quorum.NewProbabilistic(9, 2),
			Settings{WriteSystem: quorum.NewProbabilistic(9, 5)}.variants), true},
		{"grid", faultAwareEngine(quorum.NewGrid(3, 3)), false},
		{"all", faultAwareEngine(quorum.NewAll(3)), false},
		{"singleton", faultAwareEngine(quorum.NewSingleton(3, 1)), false},
		{"masking", faultAwareEngine(quorum.NewMajority(5), Settings{Masking: 1}.variants), false},
		{"no table", NewEngine(1, quorum.NewMajority(5), rng.New(3)), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.e.faultAware(); got != tc.want {
				t.Fatalf("faultAware = %v, want %v", got, tc.want)
			}
			s := tc.e.beginRead(0, nil)
			before := append([]int(nil), s.Quorum...)
			_, ok := tc.e.topUp(&s.fanout, 0)
			if tc.e.sys.Size() == tc.e.sys.N() {
				tc.want = false // nobody outside the quorum to draw
			}
			if ok != tc.want {
				t.Fatalf("topUp ok = %v, want %v", ok, tc.want)
			}
			if !ok && !reflect.DeepEqual(s.Quorum, before) {
				t.Fatalf("refused top-up changed the quorum: %v -> %v", before, s.Quorum)
			}
		})
	}

	e := NewEngine(1, nil, rng.New(3), Settings{View: &quorum.View{Epoch: 1, Members: []int32{0, 1, 2, 3, 4}}}.variants)
	e.health = transport.NewHealth(5)
	s := e.beginRead(0, nil)
	e.health.Suspect(s.Quorum[0], errors.New("lost"))
	if !e.AdoptView(quorum.View{Epoch: 2, Members: []int32{0, 1, 2, 3, 4, 5}}) {
		t.Fatal("view not adopted")
	}
	if e.health.Any() {
		t.Fatal("adopting a view kept the old view's suspicions")
	}
	if _, ok := e.topUp(&s.fanout, 0); ok {
		t.Fatal("a session picked under epoch 1 was topped up under epoch 2")
	}
}

// TestPicksAvoidSuspects: with a suspect, new and retried attempts draw
// around it; with too many, the mask is ignored rather than failing the pick;
// and with none the engine consumes exactly the stream it does without a
// table.
func TestPicksAvoidSuspects(t *testing.T) {
	e := faultAwareEngine(quorum.NewMajority(5))
	e.health.Suspect(2, errors.New("lost"))
	check := func(q []int) {
		t.Helper()
		if len(q) != 3 || pos(q, 2) >= 0 {
			t.Fatalf("quorum %v includes the suspect or is not a majority", q)
		}
	}
	for i := 0; i < 200; i++ {
		rs := e.beginRead(0, nil)
		check(rs.Quorum)
		rs = e.beginRead(rs.Reg, rs)
		check(rs.Quorum)
		e.release(rs, nil)
		ws := e.beginWrite(0, e.stamp(i), nil)
		check(ws.Quorum)
		ws = e.beginWrite(ws.Reg, ws.Tag, ws)
		check(ws.Quorum)
		e.release(nil, ws)
	}
	e.health.Suspect(0, errors.New("lost"))
	e.health.Suspect(1, errors.New("lost"))
	if q := e.beginRead(0, nil).Quorum; len(q) != 3 {
		t.Fatalf("with three of five suspected the pick returned %v", q)
	}

	plain := NewEngine(1, quorum.NewProbabilistic(34, 6), rng.New(11))
	aware := NewEngine(1, quorum.NewProbabilistic(34, 6), rng.New(11))
	aware.health = transport.NewHealth(34)
	for i := 0; i < 300; i++ {
		a, b := plain.beginRead(0, nil), aware.beginRead(0, nil)
		if !reflect.DeepEqual(a.Quorum, b.Quorum) {
			t.Fatalf("pick %d diverged with an empty table: %v vs %v", i, a.Quorum, b.Quorum)
		}
		if i%3 == 0 { // recycle some sessions so both pick paths run
			plain.release(a, nil)
			aware.release(b, nil)
		}
	}
}

// TestFastReadNeedsFullUnanimousQuorumAfterTopUp: an atomic read whose
// member was replaced still takes the one-round-trip path only when all
// Size() members — the replacement included — answered with one timestamp.
func TestFastReadNeedsFullUnanimousQuorumAfterTopUp(t *testing.T) {
	for _, tc := range []struct {
		name     string
		replTag  msg.Tagged
		wantFast bool
	}{
		{"replacement agrees", tagged(4, "v"), true},
		{"replacement is behind", tagged(3, "u"), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := faultAwareEngine(quorum.NewMajority(5))
			s := e.beginRead(0, nil)
			reply := func(srv int, tag msg.Tagged) bool {
				return s.OnReply(srv, msg.ReadReply{Reg: 0, Op: s.Op, Tag: tag})
			}
			reply(s.Quorum[0], tagged(4, "v"))
			reply(s.Quorum[1], tagged(4, "v"))
			lost := s.Quorum[2]
			e.health.Suspect(lost, errors.New("lost"))
			if _, ok := e.tryFinishReadFast(s); ok && s.Done() {
				t.Fatal("session done with a member silent")
			}
			repl, ok := e.topUp(&s.fanout, 2)
			if !ok {
				t.Fatal("top-up refused")
			}
			if reply(lost, tagged(4, "v")) {
				t.Fatal("the lost member's late reply completed the quorum")
			}
			if !reply(repl, tc.replTag) {
				t.Fatal("quorum incomplete after the replacement answered")
			}
			if _, fast := e.tryFinishReadFast(s); fast != tc.wantFast {
				t.Fatalf("fast path = %v, want %v", fast, tc.wantFast)
			}
		})
	}
}

// TestAtomicReadSlowPathWhenCacheFresher pins the monotone gate: a unanimous
// quorum is not enough when the monotone cache holds a fresher value — the
// read returns the cached value, which this quorum does NOT hold, so the
// spreading write-back must still run.
func TestAtomicReadSlowPathWhenCacheFresher(t *testing.T) {
	net := newPipeNet(3, nil, true)
	e := MustEngine(Settings{Monotone: true}, 1, quorum.NewAll(3), rng.Derive(1, "fastread.cache"))
	cl := NewKeyspaceOver([]*Engine{e}, net)
	if err := cl.Write(0, 1.0); err != nil {
		t.Fatal(err)
	}
	// The client observed a fresher value than any replica holds: its own
	// multi-writer write, begun but not yet sent to any member.
	cached := msg.Tagged{TS: msg.Timestamp{Seq: 8, Writer: 1}, Val: 8.0}
	e.beginWrite(0, cached, nil)
	tag, err := cl.ReadAtomic(0)
	if err != nil {
		t.Fatal(err)
	}
	if tag.Val != 8.0 {
		t.Fatalf("atomic read = %v, want the cached 8.0", tag.Val)
	}
	if got := e.FastReads(); got != 0 {
		t.Fatalf("FastReads = %d, want 0 (fresher cache must force the write-back)", got)
	}
	for i, st := range net.servers {
		if got := st.Get(0); got.TS != cached.TS {
			t.Fatalf("replica %d missed the cached value's write-back: %+v", i, got)
		}
	}
}
