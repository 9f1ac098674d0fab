package tcp

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"probquorum/internal/metrics"
	"probquorum/internal/msg"
	"probquorum/internal/quorum"
	"probquorum/internal/register"
	"probquorum/internal/replica"
	"probquorum/internal/rng"
	"probquorum/internal/trace"
)

// pipeCluster starts n loopback replica servers with every register of
// initial and returns their addresses.
func pipeCluster(t *testing.T, n int, initial map[msg.RegisterID]msg.Value) ([]string, []*Server) {
	t.Helper()
	addrs := make([]string, n)
	servers := make([]*Server, n)
	for i := 0; i < n; i++ {
		srv, err := Listen(replica.New(msg.NodeID(i), initial), "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen server %d: %v", i, err)
		}
		t.Cleanup(srv.Close)
		addrs[i] = srv.Addr()
		servers[i] = srv
	}
	return addrs, servers
}

func TestPipelinedClientReadWrite(t *testing.T) {
	initial := map[msg.RegisterID]msg.Value{0: 0.0, 1: 0.0}
	addrs, _ := pipeCluster(t, 5, initial)
	c, err := Dial(addrs, quorum.NewMajority(5), WithMonotone())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Write(0, 1.5); err != nil {
		t.Fatalf("write: %v", err)
	}
	tag, err := c.Read(0)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if tag.Val != 1.5 {
		t.Fatalf("read = %v, want 1.5", tag.Val)
	}
	tag, err = c.Read(1)
	if err != nil {
		t.Fatalf("read untouched reg: %v", err)
	}
	if !tag.TS.IsZero() {
		t.Fatalf("untouched register has timestamp %v", tag.TS)
	}
}

// TestPipelinedClientConcurrencyTraced is the TCP leg of the trace-checked
// concurrency harness: many goroutines hammer one pipelined client, the
// execution is trace-logged, and the checkers confirm pipelined
// well-formedness, [R2], [R4], and genuinely overlapping operations.
func TestPipelinedClientConcurrencyTraced(t *testing.T) {
	const regs = 4
	initial := map[msg.RegisterID]msg.Value{}
	for r := 0; r < regs; r++ {
		initial[msg.RegisterID(r)] = 0.0
	}
	addrs, _ := pipeCluster(t, 5, initial)

	log := &trace.Log{}
	gauge := &metrics.Gauge{}
	hist := metrics.NewIntHistogram()
	c, err := Dial(addrs, quorum.NewMajority(5),
		WithMonotone(), WithTrace(log), WithInFlightGauge(gauge), WithBatchHistogram(hist))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				reg := msg.RegisterID((w + i) % regs)
				if (w+i)%3 == 0 {
					if err := c.Write(reg, float64(w*1000+i)); err != nil {
						t.Errorf("write: %v", err)
						return
					}
				} else if _, err := c.Read(reg); err != nil {
					t.Errorf("read: %v", err)
					return
				}
			}
		}()
	}
	// One async burst on top, so overlap is guaranteed even if the
	// goroutines above happen to serialize.
	burst := make([]*register.PendingOp, regs)
	for r := 0; r < regs; r++ {
		burst[r] = c.ReadAsyncFunc(msg.RegisterID(r), nil)
	}
	for _, op := range burst {
		if _, err := op.Wait(); err != nil {
			t.Fatalf("burst read: %v", err)
		}
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	ops := log.Ops()
	if err := trace.CheckPipelinedWellFormed(ops); err != nil {
		t.Fatalf("pipelined well-formedness: %v", err)
	}
	if err := trace.CheckReadsFrom(ops); err != nil {
		t.Fatalf("[R2]: %v", err)
	}
	if err := trace.CheckMonotone(ops); err != nil {
		t.Fatalf("[R4]: %v", err)
	}
	if got := trace.MaxInFlight(ops); got < 2 {
		t.Fatalf("MaxInFlight = %d, want >= 2 (execution did not overlap operations)", got)
	}
	if gauge.Max() < 2 {
		t.Fatalf("in-flight gauge high-watermark = %d, want >= 2", gauge.Max())
	}
	if hist.Total() == 0 {
		t.Fatalf("batch histogram recorded nothing")
	}
	if hist.Max() > defaultMaxBatch {
		t.Fatalf("batch of %d exceeds the %d cap", hist.Max(), defaultMaxBatch)
	}
}

// TestPipeConnCoalesces pins the batching behaviour deterministically: five
// requests queued before the writer runs leave in one frame.
func TestPipeConnCoalesces(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()

	hist := metrics.NewIntHistogram()
	tr := newTCPTransport([]string{"pipe"}, 0, nil, hist)
	pc := (*tr.conns.Load())[0]
	pc.conn = client
	pc.gen = 1
	for i := 0; i < 5; i++ {
		pc.enqueue(msg.ReadReq{Reg: msg.RegisterID(i), Op: msg.OpID(i + 1)})
	}
	pc.wg.Add(1)
	go pc.writeLoop()
	defer func() {
		close(pc.stop)
		pc.wg.Wait()
	}()

	m, err := msg.NewFrameReader(server).Next()
	if err != nil {
		t.Fatalf("decode frame: %v", err)
	}
	batch, ok := m.(msg.Batch)
	if !ok {
		t.Fatalf("frame payload is %T, want msg.Batch", m)
	}
	if len(batch.Msgs) != 5 {
		t.Fatalf("frame carries %d requests, want 5 coalesced", len(batch.Msgs))
	}
	for i, el := range batch.Msgs {
		if req, ok := el.(msg.ReadReq); !ok || req.Op != msg.OpID(i+1) {
			t.Fatalf("element %d = %#v, want ReadReq op %d (queue order)", i, el, i+1)
		}
	}
	if hist.Total() != 1 || hist.Max() != 5 {
		t.Fatalf("batch histogram: %d frames, max %d; want 1 frame of 5", hist.Total(), hist.Max())
	}
}

// TestBatchMalformedFrameSurvives sends a batch whose leading elements are
// junk: the server must apply the valid element, reply with a one-element
// batch, and keep the connection usable — op-id matching makes dropping junk
// safe, where a malformed lone frame has to kill the stream.
func TestBatchMalformedFrameSurvives(t *testing.T) {
	initial := map[msg.RegisterID]msg.Value{0: 7.0}
	addrs, _ := pipeCluster(t, 1, initial)
	conn := dialRawBinary(t, addrs[0])
	fr := msg.NewFrameReader(conn)

	payload := func(m any) []byte {
		t.Helper()
		frame, err := msg.AppendMessage(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		return frame[4:]
	}
	junk := msg.AppendRawBatchFrame(nil, [][]byte{
		{0xEE, 1, 2, 3},                          // unknown kind
		{},                                       // empty element
		payload(msg.ReadReq{Reg: 0, Op: 40})[:5], // truncated request
		payload(msg.WriteAck{Reg: 0, Op: 40}),    // reply kind: foreign on a server-bound stream
		payload(msg.ReadReq{Reg: 0, Op: 41}),     // the one valid request
	})
	if _, err := conn.Write(junk); err != nil {
		t.Fatalf("send junk batch: %v", err)
	}
	m, err := fr.Next()
	if err != nil {
		t.Fatalf("reply to junk batch: %v", err)
	}
	replies, ok := m.(msg.Batch)
	if !ok {
		t.Fatalf("reply payload is %T, want msg.Batch", m)
	}
	if len(replies.Msgs) != 1 {
		t.Fatalf("reply batch has %d elements, want 1 (junk dropped, valid served)", len(replies.Msgs))
	}
	rep, ok := replies.Msgs[0].(msg.ReadReply)
	if !ok || rep.Op != 41 || rep.Tag.Val != 7.0 {
		t.Fatalf("reply = %#v, want ReadReply op 41 value 7", replies.Msgs[0])
	}

	// The connection must still serve subsequent frames.
	if _, err := conn.Write(encodeBatchFrame(t, msg.ReadReq{Reg: 0, Op: 42})); err != nil {
		t.Fatalf("send follow-up batch: %v", err)
	}
	if _, err := fr.Next(); err != nil {
		t.Fatalf("connection died after junk batch: %v", err)
	}
}

// TestPipelinedClientRidesOutCrash crashes one replica mid-run; the
// per-operation deadlines must re-issue stalled operations on fresh quorums
// and the workload completes.
func TestPipelinedClientRidesOutCrash(t *testing.T) {
	initial := map[msg.RegisterID]msg.Value{0: 0.0, 1: 0.0}
	addrs, servers := pipeCluster(t, 5, initial)
	c, err := Dial(addrs, quorum.NewMajority(5),
		WithMonotone(), WithOpTimeout(100*time.Millisecond), WithRetries(0))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Write(0, 1.0); err != nil {
		t.Fatalf("warm-up write: %v", err)
	}
	servers[0].Store().Crash()
	deadline := time.Now().Add(20 * time.Second)
	for i := 0; time.Now().Before(deadline) && i < 40; i++ {
		if err := c.Write(msg.RegisterID(i%2), float64(i)); err != nil {
			t.Fatalf("write %d with crashed replica: %v", i, err)
		}
		if _, err := c.Read(msg.RegisterID(i % 2)); err != nil {
			t.Fatalf("read %d with crashed replica: %v", i, err)
		}
	}
	servers[0].Store().Recover()
	if _, err := c.Read(0); err != nil {
		t.Fatalf("read after recovery: %v", err)
	}
}

// TestPipelinedClientRetriesExhausted kills every replica: bounded retries
// must surface ErrQuorumUnavailable instead of hanging.
func TestPipelinedClientRetriesExhausted(t *testing.T) {
	initial := map[msg.RegisterID]msg.Value{0: 0.0}
	addrs, servers := pipeCluster(t, 3, initial)
	c, err := Dial(addrs, quorum.NewAll(3),
		WithOpTimeout(50*time.Millisecond), WithRetries(3))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, s := range servers {
		s.Store().Crash()
	}
	done := make(chan error, 1)
	go func() { _, err := c.Read(0); done <- err }()
	select {
	case err := <-done:
		if !errors.Is(err, register.ErrQuorumUnavailable) {
			t.Fatalf("read against an all-crashed cluster: err = %v, want ErrQuorumUnavailable", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("bounded retries did not surface within 10s")
	}
}

// TestPipelinedClientsTracedRandomSchedule: three clients, each on
// connections of its own, run random schedules of blocking reads and writes
// over shared registers and end with an async burst; the shared trace must
// pass the pipelined structural check, [R2] and [R4], and show overlap.
func TestPipelinedClientsTracedRandomSchedule(t *testing.T) {
	const regs = 4
	initial := map[msg.RegisterID]msg.Value{}
	for r := 0; r < regs; r++ {
		initial[msg.RegisterID(r)] = 0.0
	}
	addrs, _ := pipeCluster(t, 5, initial)
	log := &trace.Log{}
	gauge := &metrics.Gauge{}
	const clients = 3
	pcs := make([]*Client, clients)
	for i := range pcs {
		pcs[i] = dialClient(t, addrs, quorum.NewMajority(5), WithWriter(int32(i+1)), WithSeed(uint64(i+1)),
			WithMonotone(), WithTrace(log), WithInFlightGauge(gauge))
	}

	var wg sync.WaitGroup
	for ci, pc := range pcs {
		ci, pc := ci, pc
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := rng.Derive(uint64(990+ci), "pipe.schedule")
			for i := 0; i < 60; i++ {
				reg := msg.RegisterID(r.IntN(regs))
				if r.IntN(3) == 0 {
					if err := pc.Write(reg, float64(ci*1000+i)); err != nil {
						t.Errorf("client %d write: %v", ci, err)
						return
					}
				} else if _, err := pc.Read(reg); err != nil {
					t.Errorf("client %d read: %v", ci, err)
					return
				}
			}
			// A burst of async reads over all registers guarantees this
			// client overlapped operations at least once.
			pend := make([]*register.PendingOp, 0, regs)
			for reg := msg.RegisterID(0); reg < regs; reg++ {
				pend = append(pend, pc.ReadAsyncFunc(reg, nil))
			}
			for _, op := range pend {
				if _, err := op.Wait(); err != nil {
					t.Errorf("client %d burst read: %v", ci, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	ops := log.Ops()
	if err := trace.CheckPipelinedWellFormed(ops); err != nil {
		t.Fatalf("pipelined well-formedness: %v", err)
	}
	if err := trace.CheckReadsFrom(ops); err != nil {
		t.Fatalf("[R2]: %v", err)
	}
	if err := trace.CheckMonotone(ops); err != nil {
		t.Fatalf("[R4]: %v", err)
	}
	if got := trace.MaxInFlight(ops); got < 2 {
		t.Fatalf("MaxInFlight = %d, want >= 2", got)
	}
	if gauge.Max() < 2 {
		t.Fatalf("in-flight gauge high-watermark = %d, want >= 2", gauge.Max())
	}
	if gauge.Value() != 0 {
		t.Fatalf("in-flight gauge after quiescence = %d, want 0", gauge.Value())
	}
}

// TestPipelinedClientRidesOutCrashTraced: a client with retry deadlines
// keeps writing and reading four registers while a replica is crashed, and
// the trace of the whole run, recovery included, stays valid.
func TestPipelinedClientRidesOutCrashTraced(t *testing.T) {
	initial := map[msg.RegisterID]msg.Value{0: 0.0, 1: 0.0, 2: 0.0, 3: 0.0}
	addrs, servers := pipeCluster(t, 5, initial)
	log := &trace.Log{}
	c := dialClient(t, addrs, quorum.NewMajority(5),
		WithMonotone(), WithTrace(log), WithOpTimeout(20*time.Millisecond), WithRetries(0))
	if err := c.Write(0, 1.0); err != nil {
		t.Fatalf("warm-up write: %v", err)
	}
	servers[0].Store().Crash()
	for i := 0; i < 15; i++ {
		reg := msg.RegisterID(i % 4)
		if err := c.Write(reg, float64(i)); err != nil {
			t.Fatalf("write %d with a crashed replica: %v", i, err)
		}
		if _, err := c.Read(reg); err != nil {
			t.Fatalf("read %d with a crashed replica: %v", i, err)
		}
	}
	servers[0].Store().Recover()
	if _, err := c.Read(0); err != nil {
		t.Fatalf("read after recovery: %v", err)
	}

	ops := log.Ops()
	if err := trace.CheckPipelinedWellFormed(ops); err != nil {
		t.Fatalf("pipelined well-formedness under crashes: %v", err)
	}
	if err := trace.CheckReadsFrom(ops); err != nil {
		t.Fatalf("[R2] under crashes: %v", err)
	}
	if err := trace.CheckMonotone(ops); err != nil {
		t.Fatalf("[R4] under crashes: %v", err)
	}
}

// TestPipelinedMaskingAndRepair: with operations in flight at once, repaired
// reads push the freshest value to every stale replica, and masked reads
// then outvote a replica that holds a fabricated newer value.
func TestPipelinedMaskingAndRepair(t *testing.T) {
	const regs = 4
	initial := map[msg.RegisterID]msg.Value{0: 0.0, 1: 0.0, 2: 0.0, 3: 0.0}
	addrs, servers := pipeCluster(t, 5, initial)
	w := dialClient(t, addrs, quorum.NewSingleton(5, 0), WithWriter(1))
	for reg := msg.RegisterID(0); reg < regs; reg++ {
		if err := w.Write(reg, "honest"); err != nil {
			t.Fatal(err)
		}
	}
	repair := dialClient(t, addrs, quorum.NewAll(5), WithWriter(2), WithReadRepair())
	if err := readAllHonest(repair, regs); err != nil {
		t.Fatal(err)
	}
	if got := repair.Repairs(); got != 16 {
		t.Fatalf("repairs = %d, want 16 (four stale members on each of four registers)", got)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s, srv := range servers {
		for reg := msg.RegisterID(0); reg < regs; reg++ {
			for srv.Store().Get(reg).Val != "honest" { // the repairs are fire-and-forget
				if time.Now().After(deadline) {
					t.Fatalf("server %d register %d never repaired", s, reg)
				}
				time.Sleep(time.Millisecond)
			}
		}
	}

	evil := msg.Tagged{TS: msg.Timestamp{Seq: 1 << 40, Writer: 99}, Val: "EVIL"}
	for reg := msg.RegisterID(0); reg < regs; reg++ {
		servers[4].Store().Apply(msg.WriteReq{Reg: reg, Op: 1, Tag: evil})
	}
	masked := dialClient(t, addrs, quorum.NewAll(5), WithWriter(3), WithMasking(1))
	if err := readAllHonest(masked, regs); err != nil {
		t.Fatal(err)
	}
}

// readAllHonest reads registers 0..n-1 all in flight at once and checks each
// returns the honest value.
func readAllHonest(c *Client, n int) error {
	ops := make([]*register.PendingOp, n)
	for reg := range ops {
		ops[reg] = c.ReadAsyncFunc(msg.RegisterID(reg), nil)
	}
	for reg, op := range ops {
		tag, err := op.Wait()
		if err != nil {
			return err
		}
		if tag.Val != "honest" {
			return fmt.Errorf("register %d read %v, want the honest value", reg, tag.Val)
		}
	}
	return nil
}
