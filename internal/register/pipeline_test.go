package register

import (
	"errors"
	"sync"
	"testing"
	"time"

	"probquorum/internal/metrics"
	"probquorum/internal/msg"
	"probquorum/internal/quorum"
	"probquorum/internal/replica"
	"probquorum/internal/rng"
	"probquorum/internal/trace"
	"probquorum/internal/transport"
)

// pipeNet is a controllable loop-back transport for client tests: requests
// either apply to in-process replica stores synchronously (auto mode) or
// queue up until the test releases them (manual mode), which is how tests
// freeze the network to observe genuinely overlapping operations. Replies go
// to pl, or — once a keyspace has bound it as a transport.Transport with no
// ReplyBinder — boxed through its Sink.
type pipeNet struct {
	mu      sync.Mutex
	servers []*replica.Store
	queue   []pipeMsg
	auto    bool
	drop    func(server int, req any) bool
	pl      *Keyspace
	sink    transport.Sink
}

type pipeMsg struct {
	server int
	req    any
}

func newPipeNet(n int, initial map[msg.RegisterID]msg.Value, auto bool) *pipeNet {
	net := &pipeNet{auto: auto}
	for i := 0; i < n; i++ {
		net.servers = append(net.servers, replica.New(msg.NodeID(i), initial))
	}
	return net
}

func (n *pipeNet) send(server int, req any) {
	n.mu.Lock()
	if n.drop != nil && n.drop(server, req) {
		n.mu.Unlock()
		return
	}
	if !n.auto {
		n.queue = append(n.queue, pipeMsg{server, req})
		n.mu.Unlock()
		return
	}
	n.mu.Unlock()
	n.apply(pipeMsg{server, req})
}

// release delivers every queued request (in order) and returns how many.
func (n *pipeNet) release() int {
	n.mu.Lock()
	q := n.queue
	n.queue = nil
	n.mu.Unlock()
	for _, m := range q {
		n.apply(m)
	}
	return len(q)
}

func (n *pipeNet) queued() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.queue)
}

func (n *pipeNet) apply(m pipeMsg) {
	reply, ok := n.servers[m.server].Apply(m.req)
	switch {
	case !ok:
	case n.sink != nil:
		n.sink(m.server, reply, nil)
	default:
		DeliverReply(n.pl, m.server, reply)
	}
}

func (n *pipeNet) N() int                         { return len(n.servers) }
func (n *pipeNet) Bind(sink transport.Sink)       { n.sink = sink }
func (n *pipeNet) Send(server int, req any) error { n.send(server, req); return nil }
func (n *pipeNet) Close() error                   { return nil }

func pipeFixture(t *testing.T, n int, auto bool, opts ...PipelineOption) (*Keyspace, *pipeNet) {
	t.Helper()
	initial := map[msg.RegisterID]msg.Value{0: 0.0, 1: 0.0, 2: 0.0, 3: 0.0}
	net := newPipeNet(n, initial, auto)
	sys := quorum.NewMajority(n)
	e := NewEngine(1, sys, rng.Derive(7, "pipeline.test"), Settings{Monotone: true}.variants)
	pl := NewKeyspace(e, net.send, opts...)
	net.pl = pl
	return pl, net
}

// TestPipelineOverlapsDistinctRegisters freezes the network, submits
// operations on distinct registers, and confirms they are all in flight at
// once — the tentpole behaviour the serial Engine cannot exhibit.
func TestPipelineOverlapsDistinctRegisters(t *testing.T) {
	g := &metrics.Gauge{}
	pl, net := pipeFixture(t, 5, false, ApplyPipeline(Settings{Gauge: g}))

	r0 := pl.ReadAsyncFunc(0, nil)
	r1 := pl.ReadAsyncFunc(1, nil)
	w2 := pl.WriteAsyncFunc(2, 42.0, nil)

	if got := pl.InFlight(); got != 3 {
		t.Fatalf("InFlight = %d, want 3 (distinct registers must overlap)", got)
	}
	if got := g.Value(); got != 3 {
		t.Fatalf("gauge = %d, want 3", got)
	}
	if net.queued() == 0 {
		t.Fatalf("no requests issued while 3 ops in flight")
	}
	net.release()
	if _, err := r0.Wait(); err != nil {
		t.Fatalf("read 0: %v", err)
	}
	if _, err := r1.Wait(); err != nil {
		t.Fatalf("read 1: %v", err)
	}
	if _, err := w2.Wait(); err != nil {
		t.Fatalf("write 2: %v", err)
	}
	if got := g.Value(); got != 0 {
		t.Fatalf("gauge after completion = %d, want 0", got)
	}
	if got := g.Max(); got != 3 {
		t.Fatalf("gauge high-watermark = %d, want 3", got)
	}
}

// TestPipelineFIFOPerRegister verifies that a same-register operation does
// not reach the network until its predecessor completes — the ordering [R4]
// rests on — and that the queued read then observes the completed write.
func TestPipelineFIFOPerRegister(t *testing.T) {
	pl, net := pipeFixture(t, 5, false)

	w := pl.WriteAsyncFunc(0, 3.14, nil)
	r := pl.ReadAsyncFunc(0, nil)
	firstWave := net.queued()
	if firstWave == 0 {
		t.Fatalf("write issued no requests")
	}
	if got := pl.InFlight(); got != 2 {
		t.Fatalf("InFlight = %d, want 2 (one active, one queued)", got)
	}

	// Only the write's fan-out may be on the wire: releasing it must
	// complete the write and only then put the read's requests out.
	net.release()
	if _, err := w.Wait(); err != nil {
		t.Fatalf("write: %v", err)
	}
	if net.queued() == 0 {
		t.Fatalf("read did not start after its predecessor completed")
	}
	net.release()
	tag, err := r.Wait()
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if tag.Val != 3.14 {
		t.Fatalf("read after write returned %v, want 3.14", tag.Val)
	}
}

// TestPipelineTraceInvariants runs a frozen-network interleaving through the
// trace log and the pipelined checkers: per-register well-formedness, [R2],
// [R4], and a genuine overlap witness.
func TestPipelineTraceInvariants(t *testing.T) {
	log := &trace.Log{}
	pl, net := pipeFixture(t, 5, false, ApplyPipeline(Settings{Trace: log, Proc: 9}))

	var ops []*PendingOp
	for round := 0; round < 5; round++ {
		for reg := 0; reg < 4; reg++ {
			ops = append(ops, pl.WriteAsyncFunc(msg.RegisterID(reg), float64(round*10+reg), nil))
			ops = append(ops, pl.ReadAsyncFunc(msg.RegisterID(reg), nil))
		}
		net.release()
	}
	for net.release() > 0 {
	}
	for i, op := range ops {
		if _, err := op.Wait(); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	recorded := log.Ops()
	if len(recorded) != len(ops) {
		t.Fatalf("trace has %d ops, want %d", len(recorded), len(ops))
	}
	if err := trace.CheckPipelinedWellFormed(recorded); err != nil {
		t.Fatalf("pipelined well-formedness: %v", err)
	}
	if err := trace.CheckReadsFrom(recorded); err != nil {
		t.Fatalf("[R2]: %v", err)
	}
	if err := trace.CheckMonotone(recorded); err != nil {
		t.Fatalf("[R4]: %v", err)
	}
	if got := trace.MaxInFlight(recorded); got < 2 {
		t.Fatalf("MaxInFlight = %d, want >= 2 (operations must genuinely overlap)", got)
	}
}

// TestPipelineRetryReissuesOnFreshQuorum drops every request of the first
// attempt and lets the per-operation deadline re-issue the read.
func TestPipelineRetryReissuesOnFreshQuorum(t *testing.T) {
	pl, net := pipeFixture(t, 5, true, PipeTimeout(20*time.Millisecond, 0))
	dropped := 0
	net.drop = func(server int, req any) bool {
		if _, isRead := req.(msg.ReadReq); isRead && dropped < 3 {
			dropped++
			return true
		}
		return false
	}
	tag, err := pl.Read(0)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if !tag.TS.IsZero() {
		t.Fatalf("read returned %v, want initial value", tag)
	}
	if got := pl.Retries(); got < 1 {
		t.Fatalf("Retries = %d, want >= 1", got)
	}
}

// TestPipelineRetriesExhausted starves an operation of every reply and
// confirms the bounded retry budget surfaces ErrQuorumUnavailable.
func TestPipelineRetriesExhausted(t *testing.T) {
	pl, net := pipeFixture(t, 5, true, PipeTimeout(10*time.Millisecond, 3))
	net.drop = func(int, any) bool { return true }
	_, err := pl.Read(0)
	if !errors.Is(err, ErrQuorumUnavailable) {
		t.Fatalf("read err = %v, want ErrQuorumUnavailable", err)
	}
	if got := pl.InFlight(); got != 0 {
		t.Fatalf("InFlight after exhaustion = %d, want 0", got)
	}
}

// TestPipelineAdvancesQueueAfterExhaustion verifies that a failed head of a
// register queue does not wedge the operations behind it.
func TestPipelineAdvancesQueueAfterExhaustion(t *testing.T) {
	pl, net := pipeFixture(t, 5, true, PipeTimeout(10*time.Millisecond, 2))
	var mu sync.Mutex
	dropping := true
	net.drop = func(int, any) bool {
		mu.Lock()
		defer mu.Unlock()
		return dropping
	}
	first := pl.ReadAsyncFunc(0, nil)
	second := pl.ReadAsyncFunc(0, nil)
	if _, err := first.Wait(); !errors.Is(err, ErrQuorumUnavailable) {
		t.Fatalf("first op err = %v, want ErrQuorumUnavailable", err)
	}
	mu.Lock()
	dropping = false
	mu.Unlock()
	if _, err := second.Wait(); err != nil {
		t.Fatalf("second op after failed head: %v", err)
	}
}

// TestPipelineClose fails pending operations with the given error and
// rejects later submissions.
func TestPipelineClose(t *testing.T) {
	pl, _ := pipeFixture(t, 5, false)
	sentinel := errors.New("transport gone")
	op := pl.ReadAsyncFunc(0, nil)
	pl.Close(sentinel)
	if _, err := op.Wait(); !errors.Is(err, sentinel) {
		t.Fatalf("pending op err = %v, want sentinel", err)
	}
	if _, err := pl.Read(1); !errors.Is(err, sentinel) {
		t.Fatalf("post-close op err = %v, want sentinel", err)
	}
	pl.Close(errors.New("second close is a no-op"))
}

// TestPipelineConcurrentUseNeverTripsGuard is the regression test for the
// Engine's documented-but-unenforced concurrency contract: the client must
// serialize its Engine calls so the new opGuard assertion never fires, no
// matter how many goroutines hammer it.
func TestPipelineConcurrentUseNeverTripsGuard(t *testing.T) {
	pl, _ := pipeFixture(t, 5, true)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				reg := msg.RegisterID((w + i) % 4)
				if w%2 == 0 {
					if err := pl.Write(reg, float64(w*1000+i)); err != nil {
						t.Errorf("write: %v", err)
						return
					}
				} else if _, err := pl.Read(reg); err != nil {
					t.Errorf("read: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if got := pl.InFlight(); got != 0 {
		t.Fatalf("InFlight after quiescence = %d, want 0", got)
	}
}

// TestPipelineWriteTimestampsFIFO confirms same-register writes get strictly
// increasing timestamps in submission order even when submitted back-to-back
// with the network frozen — the pipeline assigns the timestamp only when the
// operation reaches the head of its register queue.
func TestPipelineWriteTimestampsFIFO(t *testing.T) {
	pl, net := pipeFixture(t, 5, false)
	var ops []*PendingOp
	for i := 0; i < 5; i++ {
		ops = append(ops, pl.WriteAsyncFunc(0, float64(i), nil))
	}
	for net.release() > 0 {
	}
	var prev msg.Timestamp
	for i, op := range ops {
		tag, err := op.Wait()
		if err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		if i > 0 && !prev.Less(tag.TS) {
			t.Fatalf("write %d timestamp %v not after predecessor %v", i, tag.TS, prev)
		}
		prev = tag.TS
	}
	tag := pl.ReadAsyncFunc(0, nil)
	net.release()
	got, err := tag.Wait()
	if err != nil {
		t.Fatalf("final read: %v", err)
	}
	if got.Val != 4.0 {
		t.Fatalf("final read = %v, want 4 (last write wins)", got.Val)
	}
}

// TestPipelineStaleRepliesIgnored: over a transport with no ReplyBinder,
// replies arrive boxed through the Sink, and the sink a keyspace binds feeds
// them to the pipeline's typed calls. Replies to no operation are dropped by
// id, a non-protocol payload is ignored, the real replies complete the
// operation, and duplicates of them after completion are dropped too.
func TestPipelineStaleRepliesIgnored(t *testing.T) {
	var tc metrics.TransportCounters
	net := newPipeNet(5, map[msg.RegisterID]msg.Value{0: 0.0}, false)
	e := NewEngine(1, quorum.NewMajority(5), rng.Derive(7, "pipeline.test"))
	pl := NewKeyspaceOver([]*Engine{e}, net, ApplyPipeline(Settings{Counters: &tc}))
	op := pl.ReadAsyncFunc(0, nil)
	net.sink(0, msg.ReadReply{Op: msg.OpID(1 << 40)}, nil)
	net.sink(0, msg.WriteAck{Op: msg.OpID(1 << 41)}, nil)
	net.sink(0, "not a protocol message", nil)
	if got := tc.StaleDrops.Value(); got != 2 {
		t.Fatalf("stale drops after two foreign replies = %d, want 2", got)
	}
	net.mu.Lock()
	held := append([]pipeMsg(nil), net.queue...)
	net.mu.Unlock()
	net.release()
	got, err := op.Wait()
	if err != nil {
		t.Fatalf("read with junk deliveries: %v", err)
	}
	if got.Val != 0.0 {
		t.Fatalf("read %v, want the stores' 0", got.Val)
	}
	before := tc.StaleDrops.Value()
	for _, m := range held {
		net.apply(m)
	}
	if got := tc.StaleDrops.Value() - before; got != int64(len(held)) {
		t.Fatalf("%d duplicate replies after completion made %d stale drops, want one each", len(held), got)
	}
}

// TestPipelineOpOutlivesRing: one attempt stays in flight while more than a
// ring's worth of newer operations complete. When its slot of the in-flight
// table comes round at the ring's cap its id moves to the overflow map, and
// the round that takes the slot stays in flight too. The old attempt still
// completes when its replies arrive, and their late duplicates count as
// stale drops: the slot's full id tells the two rounds apart.
func TestPipelineOpOutlivesRing(t *testing.T) {
	var tc metrics.TransportCounters
	pl, net := pipeFixture(t, 5, false, ApplyPipeline(Settings{Counters: &tc}))
	p := pl.shards[0]
	old := pl.ReadAsyncFunc(0, nil)
	net.mu.Lock()
	held := net.queue
	net.queue = nil
	net.mu.Unlock()

	var owner *PendingOp
	for n := 0; owner == nil; n++ {
		if n > 2*ringMax {
			t.Fatalf("%d newer operations completed and the old attempt never left the ring", n)
		}
		op := pl.ReadAsyncFunc(1, nil)
		p.mu.Lock()
		overflowed := len(p.ops.over) > 0
		p.mu.Unlock()
		if overflowed {
			owner = op // holds the old attempt's slot, in flight
			break
		}
		net.release()
		if _, err := op.Wait(); err != nil {
			t.Fatalf("newer read %d: %v", n, err)
		}
	}
	if got := len(p.ops.slots); got != ringMax {
		t.Fatalf("ring of %d slots when the old attempt overflowed, want the cap %d", got, ringMax)
	}

	for _, m := range held {
		net.apply(m)
	}
	select {
	case <-old.Done():
	default:
		t.Fatal("the old attempt's replies did not complete it")
	}
	if got, err := old.Wait(); err != nil || got.Val != 0.0 {
		t.Fatalf("old read = %v, %v; want the stores' 0", got.Val, err)
	}
	before := tc.StaleDrops.Value()
	for _, m := range held {
		net.apply(m)
	}
	if got := tc.StaleDrops.Value() - before; got != int64(len(held)) {
		t.Fatalf("%d late duplicates made %d stale drops, want one each", len(held), got)
	}
	net.release()
	if _, err := owner.Wait(); err != nil {
		t.Fatalf("the slot's new owner: %v", err)
	}
	if n, over := pl.InFlight(), len(p.ops.over); n != 0 || over != 0 {
		t.Fatalf("%d in flight, %d ids in the overflow map after everything completed", n, over)
	}
}

func BenchmarkPipelineLoopbackSubmit(b *testing.B) {
	initial := map[msg.RegisterID]msg.Value{0: 0.0}
	net := newPipeNet(5, initial, true)
	sys := quorum.NewMajority(5)
	e := NewEngine(1, sys, rng.Derive(7, "pipeline.bench"), Settings{Monotone: true}.variants)
	pl := NewKeyspace(e, net.send)
	net.pl = pl
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pl.Read(0); err != nil {
			b.Fatal(err)
		}
	}
}
