package tcp

import (
	"errors"
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
		burst[r] = c.ReadAsync(msg.RegisterID(r))
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
	tr := newTCPTransport([]string{"pipe"}, 0, nil, 16, hist)
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

// TestEngineVariantsOverTCP is the TCP leg of the conformance table's
// pipelined-masking and pipelined-repair rows, which the adapter's options
// cannot express: the same engine variants run as a register.Pipeline over
// this package's transport. Six registers are written with all writes in
// flight and read back the same way. Under masking, replica 0 holds a
// fabricated tag far newer than any write for every register, and k = 4 of
// 5 keeps two honest votes for the written value in every read quorum; under
// repair, reads push the value back to the members that missed the write.
func TestEngineVariantsOverTCP(t *testing.T) {
	const regs = 6
	fabricated := msg.Tagged{TS: msg.Timestamp{Seq: 1 << 40, Writer: 99}, Val: "fabricated"}
	for _, tc := range []struct {
		name   string
		sys    quorum.System
		opt    register.Option
		masked bool
	}{
		{"masking", quorum.NewProbabilistic(5, 4), register.WithMasking(1), true},
		{"repair", quorum.NewMajority(5), register.WithReadRepair(), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			initial := map[msg.RegisterID]msg.Value{}
			for r := 0; r < regs; r++ {
				initial[msg.RegisterID(r)] = 0.0
			}
			addrs, servers := pipeCluster(t, 5, initial)
			if tc.masked {
				for r := 0; r < regs; r++ {
					servers[0].Store().Apply(msg.WriteReq{Reg: msg.RegisterID(r), Op: 1, Tag: fabricated})
				}
			}
			tr := newTCPTransport(addrs, defaultOpTimeout, &metrics.TransportCounters{}, defaultMaxBatch, nil)
			if err := tr.start(); err != nil {
				t.Fatal(err)
			}
			defer tr.Close()
			e := register.NewEngine(1, tc.sys, rng.Derive(1, "tcp.variants."+tc.name), tc.opt)
			log := &trace.Log{}
			pl := register.NewPipelineOver(e, tr, register.PipeTimeout(defaultOpTimeout, 0), register.PipeTrace(log, 1))
			ops := make([]*register.PendingOp, regs)
			for r := range ops {
				ops[r] = pl.WriteAsync(msg.RegisterID(r), float64(r+1))
			}
			for _, op := range ops {
				if _, err := op.Wait(); err != nil {
					t.Fatal(err)
				}
			}
			for r := range ops {
				ops[r] = pl.ReadAsync(msg.RegisterID(r))
			}
			for r, op := range ops {
				tag, err := op.Wait()
				if err != nil {
					t.Fatal(err)
				}
				if tag.Val != float64(r+1) {
					t.Fatalf("read reg %d = %v, want %v", r, tag.Val, float64(r+1))
				}
			}
			if err := trace.CheckPipelinedWellFormed(log.Ops()); err != nil {
				t.Fatal(err)
			}
			if err := trace.CheckReadsFrom(log.Ops()); err != nil {
				t.Fatal(err)
			}
			if !tc.masked && e.Repairs() == 0 {
				t.Fatal("no repair message was issued: every read quorum held the write")
			}
		})
	}
}
