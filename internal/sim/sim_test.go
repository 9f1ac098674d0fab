package sim

import (
	"reflect"
	"testing"
	"time"

	"probquorum/internal/msg"
	"probquorum/internal/rng"
)

// pingNode sends count pings to peer and records when each pong arrives.
type pingNode struct {
	peer   msg.NodeID
	count  int
	pongAt []Time
}

func (p *pingNode) Init(ctx *Context) {
	for i := 0; i < p.count; i++ {
		ctx.Send(p.peer, "ping")
	}
}

func (p *pingNode) Recv(ctx *Context, from msg.NodeID, m any) {
	if m == "pong" {
		p.pongAt = append(p.pongAt, ctx.Now())
	}
}

// echoNode answers every ping with a pong.
type echoNode struct{ replies int }

func (e *echoNode) Init(*Context) {}
func (e *echoNode) Recv(ctx *Context, from msg.NodeID, m any) {
	if m == "ping" {
		e.replies++
		ctx.Send(from, "pong")
	}
}

func TestPingPongConstantDelay(t *testing.T) {
	s := New(1, DistDelay{Dist: rng.Constant{D: time.Millisecond}})
	ping := &pingNode{peer: 1, count: 3}
	echo := &echoNode{}
	s.Add(0, ping)
	s.Add(1, echo)
	s.Run()
	if echo.replies != 3 {
		t.Fatalf("echo saw %d pings", echo.replies)
	}
	if len(ping.pongAt) != 3 {
		t.Fatalf("ping saw %d pongs", len(ping.pongAt))
	}
	// Constant 1ms each way: every pong lands at exactly 2ms.
	for _, at := range ping.pongAt {
		if at != Time(2*time.Millisecond) {
			t.Fatalf("pong at %d, want %d", at, Time(2*time.Millisecond))
		}
	}
	if s.Messages() != 6 {
		t.Fatalf("messages = %d, want 6", s.Messages())
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []Time {
		s := New(42, DistDelay{Dist: rng.Exponential{MeanD: time.Millisecond}})
		ping := &pingNode{peer: 1, count: 50}
		s.Add(0, ping)
		s.Add(1, &echoNode{})
		s.Run()
		return ping.pongAt
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("replay lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at pong %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	run := func(seed uint64) []Time {
		s := New(seed, DistDelay{Dist: rng.Exponential{MeanD: time.Millisecond}})
		ping := &pingNode{peer: 1, count: 20}
		s.Add(0, ping)
		s.Add(1, &echoNode{})
		s.Run()
		return ping.pongAt
	}
	a, b := run(1), run(2)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical executions")
	}
}

type timerNode struct {
	fired []int
}

func (n *timerNode) Init(ctx *Context) {
	ctx.After(3*time.Millisecond, 2, nil)
	ctx.After(1*time.Millisecond, 1, nil)
	ctx.After(2*time.Millisecond, 3, "payload")
}
func (n *timerNode) Recv(*Context, msg.NodeID, any) {}
func (n *timerNode) Timer(ctx *Context, kind int, payload any) {
	n.fired = append(n.fired, kind)
	if kind == 3 && payload != "payload" {
		panic("payload lost")
	}
}

func TestTimersFireInOrder(t *testing.T) {
	s := New(1, DistDelay{Dist: rng.Constant{D: 0}})
	n := &timerNode{}
	s.Add(0, n)
	s.Run()
	if len(n.fired) != 3 || n.fired[0] != 1 || n.fired[1] != 3 || n.fired[2] != 2 {
		t.Fatalf("timer order = %v, want [1 3 2]", n.fired)
	}
}

type stopAfter struct {
	n     int
	seen  int
	peer  msg.NodeID
	total *int
}

func (s *stopAfter) Init(ctx *Context) { ctx.Send(s.peer, "m") }
func (s *stopAfter) Recv(ctx *Context, from msg.NodeID, m any) {
	s.seen++
	*s.total++
	if s.seen >= s.n {
		ctx.Stop()
		return
	}
	ctx.Send(from, "m")
}

func TestStopEndsRun(t *testing.T) {
	s := New(1, DistDelay{Dist: rng.Constant{D: time.Millisecond}})
	total := 0
	a := &stopAfter{n: 5, peer: 1, total: &total}
	b := &stopAfter{n: 1 << 30, peer: 0, total: &total}
	s.Add(0, a)
	s.Add(1, b)
	s.Run()
	if !s.Stopped() {
		t.Fatal("run did not stop")
	}
	if a.seen != 5 {
		t.Fatalf("a saw %d messages, want 5", a.seen)
	}
}

func TestMaxEventsCap(t *testing.T) {
	s := New(1, DistDelay{Dist: rng.Constant{D: time.Millisecond}})
	total := 0
	// Two nodes ping-pong forever.
	s.Add(0, &stopAfter{n: 1 << 30, peer: 1, total: &total})
	s.Add(1, &stopAfter{n: 1 << 30, peer: 0, total: &total})
	s.SetMaxEvents(100)
	delivered := s.Run()
	if delivered != 100 {
		t.Fatalf("delivered %d events, want exactly the 100 cap", delivered)
	}
}

func TestDuplicateNodePanics(t *testing.T) {
	s := New(1, DistDelay{Dist: rng.Constant{D: 0}})
	s.Add(0, &echoNode{})
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Add did not panic")
		}
	}()
	s.Add(0, &echoNode{})
}

func TestMessageToUnknownNodeDropped(t *testing.T) {
	s := New(1, DistDelay{Dist: rng.Constant{D: 0}})
	s.Add(0, &pingNode{peer: 99, count: 3})
	s.Run() // must not panic or hang
	if s.Messages() != 3 {
		t.Fatalf("messages = %d", s.Messages())
	}
}

func TestPerNodeRandStable(t *testing.T) {
	s1 := New(5, DistDelay{Dist: rng.Constant{D: 0}})
	s2 := New(5, DistDelay{Dist: rng.Constant{D: 0}})
	s1.Add(3, &echoNode{})
	s2.Add(3, &echoNode{})
	a := s1.nodes[3].ctx.Rand().Uint64()
	b := s2.nodes[3].ctx.Rand().Uint64()
	if a != b {
		t.Fatal("per-node stream not derived deterministically from seed")
	}
}

func TestTieBreakBySequence(t *testing.T) {
	// Two messages scheduled for the same instant must be delivered in send
	// order.
	s := New(1, DistDelay{Dist: rng.Constant{D: time.Millisecond}})
	var order []string
	s.Add(0, initSender{})
	s.Add(1, recorder{&order})
	s.Run()
	if len(order) != 2 || order[0] != "first" || order[1] != "second" {
		t.Fatalf("delivery order = %v", order)
	}
}

type initSender struct{}

func (initSender) Init(ctx *Context) {
	ctx.Send(1, "first")
	ctx.Send(1, "second")
}
func (initSender) Recv(*Context, msg.NodeID, any) {}

type recorder struct{ order *[]string }

func (recorder) Init(*Context) {}
func (r recorder) Recv(_ *Context, _ msg.NodeID, m any) {
	*r.order = append(*r.order, m.(string))
}

// clockNode arms AfterFunc calls on its virtual clock from Init.
type clockNode struct {
	clock Clock
	fired []time.Duration
}

func (n *clockNode) Init(*Context) {
	n.clock.AfterFunc(3*time.Millisecond, func() { n.fired = append(n.fired, n.clock.Now()) })
	stopped := n.clock.AfterFunc(time.Millisecond, func() { n.fired = append(n.fired, -1) })
	if !stopped.Stop() || stopped.Stop() {
		panic("Stop of a pending call must report true once, then false")
	}
	var reset Timer
	reset = n.clock.AfterFunc(2*time.Millisecond, func() {
		n.fired = append(n.fired, n.clock.Now())
		if len(n.fired) < 3 && reset.Reset(5*time.Millisecond) {
			panic("Reset of a call that already ran must report false")
		}
	})
	if !reset.Reset(4 * time.Millisecond) {
		panic("Reset of a pending call must report true")
	}
}

func (n *clockNode) Recv(*Context, msg.NodeID, any) {}

// TestClockAfterFunc pins the virtual clock's timer semantics: calls run at
// their virtual deadline, a stopped call never runs, a reset call runs once
// at its new deadline and can be re-armed from inside itself, and a stopped
// or superseded wake is not counted as a delivered event.
func TestClockAfterFunc(t *testing.T) {
	s := New(1, DistDelay{Dist: rng.Constant{D: 0}})
	n := &clockNode{clock: s.Clock(0)}
	s.Add(0, n)
	delivered := s.Run()
	want := []time.Duration{3 * time.Millisecond, 4 * time.Millisecond, 9 * time.Millisecond}
	if !reflect.DeepEqual(n.fired, want) {
		t.Fatalf("calls ran at %v, want %v", n.fired, want)
	}
	if delivered != 3 {
		t.Fatalf("delivered %d events, want 3 (the stopped and the superseded wake are not events)", delivered)
	}
}
