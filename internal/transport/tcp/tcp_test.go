package tcp

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"probquorum/internal/metrics"
	"probquorum/internal/msg"
	"probquorum/internal/quorum"
	"probquorum/internal/register"
	"probquorum/internal/replica"
	"probquorum/internal/trace"
)

// startCluster launches n loopback servers and returns their addresses.
func startCluster(t *testing.T, n int, initial map[msg.RegisterID]msg.Value) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		srv, err := Listen(replica.New(msg.NodeID(i), initial), "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
		addrs[i] = srv.Addr()
	}
	return addrs
}

func TestReadWriteOverTCP(t *testing.T) {
	addrs := startCluster(t, 5, map[msg.RegisterID]msg.Value{0: "init"})
	c, err := Dial(addrs, quorum.NewMajority(5))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	tag, err := c.Read(0)
	if err != nil {
		t.Fatal(err)
	}
	if tag.Val != "init" {
		t.Fatalf("initial read = %v", tag.Val)
	}
	for i := 1; i <= 10; i++ {
		if err := c.Write(0, i); err != nil {
			t.Fatal(err)
		}
		tag, err := c.Read(0)
		if err != nil {
			t.Fatal(err)
		}
		if tag.Val != i {
			t.Fatalf("read %v after write %d", tag.Val, i)
		}
	}
}

func TestSliceValuesOverTCP(t *testing.T) {
	addrs := startCluster(t, 3, map[msg.RegisterID]msg.Value{0: []float64{0, 1}})
	c, err := Dial(addrs, quorum.NewAll(3))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	want := []float64{3.5, 2.5, 1.5}
	if err := c.Write(0, want); err != nil {
		t.Fatal(err)
	}
	tag, err := c.Read(0)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := tag.Val.([]float64)
	if !ok {
		t.Fatalf("value type %T", tag.Val)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row = %v, want %v", got, want)
		}
	}
}

func TestTwoClientsSeparateWriters(t *testing.T) {
	addrs := startCluster(t, 5, map[msg.RegisterID]msg.Value{0: nil, 1: nil})
	a, err := Dial(addrs, quorum.NewMajority(5), WithWriter(1))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Dial(addrs, quorum.NewMajority(5), WithWriter(2), WithMonotone())
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	// Single-writer-per-register discipline: a writes reg 0, b writes reg 1.
	if err := a.Write(0, "from-a"); err != nil {
		t.Fatal(err)
	}
	if err := b.Write(1, "from-b"); err != nil {
		t.Fatal(err)
	}
	ta, err := b.Read(0)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := a.Read(1)
	if err != nil {
		t.Fatal(err)
	}
	if ta.Val != "from-a" || tb.Val != "from-b" {
		t.Fatalf("cross reads = %v, %v", ta.Val, tb.Val)
	}
}

func TestMonotoneOverTCP(t *testing.T) {
	addrs := startCluster(t, 8, map[msg.RegisterID]msg.Value{0: nil})
	w, err := Dial(addrs, quorum.NewProbabilistic(8, 1), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	r, err := Dial(addrs, quorum.NewProbabilistic(8, 1), WithMonotone(), WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	var last msg.Timestamp
	for i := 0; i < 100; i++ {
		if err := w.Write(0, i); err != nil {
			t.Fatal(err)
		}
		tag, err := r.Read(0)
		if err != nil {
			t.Fatal(err)
		}
		if tag.TS.Less(last) {
			t.Fatalf("monotone TCP client regressed: %v after %v", tag.TS, last)
		}
		last = tag.TS
	}
	if r.CacheHits() == 0 {
		t.Fatal("k=1 monotone client never used its cache")
	}
}

func TestConcurrentQuorumFanOut(t *testing.T) {
	addrs := startCluster(t, 9, map[msg.RegisterID]msg.Value{0: nil})
	var wg sync.WaitGroup
	errCh := make(chan error, 4)
	for w := 0; w < 4; w++ {
		c, err := Dial(addrs, quorum.NewMajority(9), WithWriter(int32(w)), WithSeed(uint64(w)))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		wg.Add(1)
		go func(c *Client, reg msg.RegisterID) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				if err := c.Write(reg, i); err != nil {
					errCh <- err
					return
				}
				if _, err := c.Read(reg); err != nil {
					errCh <- err
					return
				}
			}
		}(c, msg.RegisterID(0))
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

func TestDialValidation(t *testing.T) {
	addrs := startCluster(t, 3, nil)
	if _, err := Dial(addrs, quorum.NewMajority(5)); err == nil {
		t.Fatal("mismatched system accepted")
	}
	if _, err := Dial([]string{"127.0.0.1:1"}, quorum.NewSingleton(1, 0)); err == nil {
		t.Fatal("dead address accepted")
	}
	if _, err := DialSet(addrs, quorum.NewMajority(3), 1, nil); err == nil {
		t.Fatal("connection set without engines accepted")
	}
}

func TestReadAfterServerClose(t *testing.T) {
	initial := map[msg.RegisterID]msg.Value{0: "x"}
	srv, err := Listen(replica.New(0, initial), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial([]string{srv.Addr()}, quorum.NewSingleton(1, 0),
		WithOpTimeout(20*time.Millisecond), WithRetries(1))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	srv.Close()
	// The exhausted budget names the lost member it could not replace.
	if _, err := c.Read(0); err == nil {
		t.Fatal("read over closed connection succeeded")
	} else if !strings.Contains(err.Error(), "server 0") {
		t.Fatalf("error lacks server context: %v", err)
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	srv, err := Listen(replica.New(0, nil), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
	srv.Close()
}

// TestValueUnionOverTCP writes one value of every type in the wire codec's
// union and reads it back with its Go type intact.
func TestValueUnionOverTCP(t *testing.T) {
	addrs := startCluster(t, 3, map[msg.RegisterID]msg.Value{0: "init"})
	c, err := Dial(addrs, quorum.NewAll(3))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, val := range []msg.Value{
		nil, int64(-5), int(7), uint64(1 << 63), 2.5, true, "s",
		[]byte{1, 2}, []float64{1.5, -2}, []bool{true, false},
	} {
		if err := c.Write(0, val); err != nil {
			t.Fatalf("write %T: %v", val, err)
		}
		tag, err := c.Read(0)
		if err != nil {
			t.Fatalf("read %T back: %v", val, err)
		}
		if !reflect.DeepEqual(tag.Val, val) {
			t.Errorf("wrote %#v (%T), read %#v (%T)", val, val, tag.Val, tag.Val)
		}
	}
}

// TestUnsupportedValueFailsFast pins every write entry point's up-front
// check: a value outside the codec's union is refused with
// msg.ErrUnsupportedValue before anything is sent — no retry budget burns,
// no connection dies, no server is suspected — and the client keeps
// working. The check lives in the one submission path, so the multi-writer
// write and the embedded keyspace's own methods cannot skip it.
func TestUnsupportedValueFailsFast(t *testing.T) {
	type custom struct{ A, B int }
	bad := custom{A: 1, B: 2}
	addrs := startCluster(t, 3, map[msg.RegisterID]msg.Value{0: nil})
	sys := quorum.NewAll(3)

	serial, err := Dial(addrs, sys, WithOpTimeout(50*time.Millisecond), WithRetries(2))
	if err != nil {
		t.Fatal(err)
	}
	defer serial.Close()
	ks, err := DialKeyspace(addrs, sys, 2, WithWriter(3), WithRetries(2))
	if err != nil {
		t.Fatal(err)
	}
	defer ks.Close()

	wait := func(op *register.PendingOp) error { _, err := op.Wait(); return err }
	for _, tc := range []struct {
		name     string
		write    func(val msg.Value) error
		counters *metrics.TransportCounters
	}{
		{"Client.Write", func(v msg.Value) error { return serial.Write(0, v) }, serial.Counters()},
		{"Client.WriteMulti", func(v msg.Value) error { _, err := serial.WriteMulti(0, v); return err }, serial.Counters()},
		{"Client.WriteAsync", func(v msg.Value) error { return wait(serial.WriteAsyncFunc(0, v, nil)) }, serial.Counters()},
		{"Client.WriteMultiAsyncFunc", func(v msg.Value) error { return wait(serial.WriteMultiAsyncFunc(0, v, nil)) }, serial.Counters()},
		{"Client.Keyspace.WriteAsyncFunc", func(v msg.Value) error { return wait(serial.Keyspace.WriteAsyncFunc(0, v, nil)) }, serial.Counters()},
		{"KeyspaceClient.Write", func(v msg.Value) error { return ks.Write(0, v) }, ks.Counters()},
		{"KeyspaceClient.WriteAsync", func(v msg.Value) error { return wait(ks.WriteAsyncFunc(0, v, nil)) }, ks.Counters()},
		{"KeyspaceClient.WriteAsyncFunc", func(v msg.Value) error {
			got := make(chan error, 1)
			op := ks.WriteAsyncFunc(0, v, func(_ msg.Tagged, err error) { got <- err })
			if cb := <-got; cb != wait(op) {
				t.Errorf("callback got %v, Wait got %v", cb, wait(op))
			}
			return wait(op)
		}, ks.Counters()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.write(bad); !errors.Is(err, msg.ErrUnsupportedValue) {
				t.Fatalf("write of a %T: err = %v, want msg.ErrUnsupportedValue", bad, err)
			}
			if err := tc.write("fine"); err != nil {
				t.Fatalf("write after the refused one: %v", err)
			}
			c := tc.counters
			if r, d, s := c.Retries.Value(), c.Reconnects.Value(), c.Suspicions.Value(); r != 0 || d != 0 || s != 0 {
				t.Errorf("refused write cost %d retries, %d reconnects and %d suspicions, want none", r, d, s)
			}
		})
	}
}

func TestReadAtomicOverTCP(t *testing.T) {
	addrs := startCluster(t, 5, map[msg.RegisterID]msg.Value{0: nil})
	// Write reaches only server 0.
	w, err := Dial(addrs, quorum.NewSingleton(5, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Write(0, "abd"); err != nil {
		t.Fatal(err)
	}
	// Atomic read over a full quorum: must see the value and write it back
	// everywhere before returning.
	r, err := Dial(addrs, quorum.NewAll(5), WithWriter(2))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	tag, err := r.ReadAtomic(0)
	if err != nil {
		t.Fatal(err)
	}
	if tag.Val != "abd" {
		t.Fatalf("atomic read = %v", tag.Val)
	}
	// Any subsequent single-server read sees it: the write-back completed
	// before ReadAtomic returned.
	for srv := 0; srv < 5; srv++ {
		single, err := Dial(addrs, quorum.NewSingleton(5, srv), WithWriter(int32(3+srv)))
		if err != nil {
			t.Fatal(err)
		}
		got, err := single.Read(0)
		single.Close()
		if err != nil {
			t.Fatal(err)
		}
		if got.Val != "abd" {
			t.Fatalf("server %d missed the awaited write-back: %v", srv, got.Val)
		}
	}
}

func TestWithTallyRecordsQuorums(t *testing.T) {
	addrs := startCluster(t, 5, map[msg.RegisterID]msg.Value{0: "init"})
	tally := metrics.NewAccessTally(5)
	cl, err := Dial(addrs, quorum.NewProbabilistic(5, 2), WithTally(tally))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := 0; i < 7; i++ {
		if _, err := cl.Read(0); err != nil {
			t.Fatal(err)
		}
	}
	if got := tally.Total(); got != 7 {
		t.Fatalf("tally ops = %d, want 7", got)
	}
}

// dialClient dials addrs and closes the client when the test ends.
func dialClient(t *testing.T, addrs []string, sys quorum.System, opts ...ClientOption) *Client {
	t.Helper()
	c, err := Dial(addrs, sys, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func TestReadInitial(t *testing.T) {
	addrs := startCluster(t, 5, map[msg.RegisterID]msg.Value{0: "init"})
	c := dialClient(t, addrs, quorum.NewMajority(5))
	tag, err := c.Read(0)
	if err != nil {
		t.Fatal(err)
	}
	if tag.Val != "init" || !tag.TS.IsZero() {
		t.Fatalf("initial read = %+v", tag)
	}
}

// TestWriteReadRoundTripStrict: majority quorums intersect, so a second
// client reads each write of the first as soon as it completes.
func TestWriteReadRoundTripStrict(t *testing.T) {
	addrs := startCluster(t, 5, map[msg.RegisterID]msg.Value{0: "init"})
	w := dialClient(t, addrs, quorum.NewMajority(5), WithWriter(1), WithSeed(1))
	r := dialClient(t, addrs, quorum.NewMajority(5), WithWriter(2), WithSeed(2))
	for i := 1; i <= 20; i++ {
		if err := w.Write(0, i); err != nil {
			t.Fatal(err)
		}
		tag, err := r.Read(0)
		if err != nil {
			t.Fatal(err)
		}
		if tag.Val != i {
			t.Fatalf("read %v after write %d", tag.Val, i)
		}
	}
}

// TestConcurrentClients: eight clients, each on connections of its own,
// write and read one register at once; every operation completes.
func TestConcurrentClients(t *testing.T) {
	addrs := startCluster(t, 7, map[msg.RegisterID]msg.Value{1: 0})
	const clients = 8
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for i := 0; i < clients; i++ {
		cl := dialClient(t, addrs, quorum.NewMajority(7), WithWriter(int32(i+1)), WithSeed(uint64(i+1)))
		wg.Add(1)
		go func(cl *Client, base int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				if err := cl.Write(1, base*100+j); err != nil {
					errCh <- err
					return
				}
				if _, err := cl.Read(1); err != nil {
					errCh <- err
					return
				}
			}
		}(cl, i)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

// TestInvalidServerCount: a client needs one server per member of its
// quorum system; dialing none is refused, alone or as a connection set.
func TestInvalidServerCount(t *testing.T) {
	if _, err := Dial(nil, quorum.NewMajority(3)); err == nil {
		t.Fatal("zero servers accepted")
	}
	if _, err := DialSet(nil, quorum.NewMajority(3), 1, [][]ClientOption{nil}); err == nil {
		t.Fatal("zero servers accepted by a connection set")
	}
}

// TestMismatchedQuorumSystemRejected: every constructor refuses a quorum
// system or view whose size differs from the address count.
func TestMismatchedQuorumSystemRejected(t *testing.T) {
	addrs := startCluster(t, 5, nil)
	if _, err := DialKeyspace(addrs, quorum.NewMajority(7), 4); err == nil {
		t.Fatal("keyspace client with a mismatched system accepted")
	}
	if _, err := DialSet(addrs, quorum.NewMajority(3), 1, [][]ClientOption{nil, nil}); err == nil {
		t.Fatal("connection set with a mismatched system accepted")
	}
	v := quorum.View{Epoch: 1, Members: []int32{0, 1, 2}, Addrs: addrs[:3]}
	if _, err := Dial(addrs, v.System(), WithView(v)); err == nil {
		t.Fatal("five addresses for a three-member view accepted")
	}
}

// TestOperationsAfterCloseFail: once every server has closed, a client's
// operations fail within their retry budget, and a new client cannot dial.
func TestOperationsAfterCloseFail(t *testing.T) {
	addrs, servers := pipeCluster(t, 3, map[msg.RegisterID]msg.Value{0: "init"})
	cl := dialClient(t, addrs, quorum.NewAll(3), WithOpTimeout(20*time.Millisecond), WithRetries(1))
	for _, s := range servers {
		s.Close()
	}
	if err := watchdog(t, 5*time.Second, "read after the servers closed", func() error {
		_, err := cl.Read(0)
		return err
	}); !errors.Is(err, register.ErrQuorumUnavailable) {
		t.Fatalf("read after the servers closed: err = %v, want ErrQuorumUnavailable", err)
	}
	if c, err := Dial(addrs, quorum.NewAll(3)); err == nil {
		c.Close()
		t.Fatal("new client dialed closed servers")
	}
}

// TestCloseIdempotent: closing a client, an engine of a set or the set
// twice is harmless, in any order.
func TestCloseIdempotent(t *testing.T) {
	addrs := startCluster(t, 2, nil)
	cl, err := Dial(addrs, quorum.NewAll(2))
	if err != nil {
		t.Fatal(err)
	}
	cl.Close()
	cl.Close()
	set, err := DialSet(addrs, quorum.NewAll(2), 1, [][]ClientOption{{WithWriter(1)}, {WithWriter(2)}})
	if err != nil {
		t.Fatal(err)
	}
	set.Engine(0).Close()
	set.Engine(0).Close()
	set.Close()
	set.Close()
	set.Engine(1).Close()
}

// TestCloseStopsDeliveries: a closed client fails every later operation with
// ErrClientClosed, and a fresh client on the same servers is unaffected.
func TestCloseStopsDeliveries(t *testing.T) {
	addrs := startCluster(t, 3, map[msg.RegisterID]msg.Value{0: "init"})
	cl := dialClient(t, addrs, quorum.NewAll(3))
	if _, err := cl.Read(0); err != nil {
		t.Fatal(err)
	}
	cl.Close()
	if _, err := cl.Read(0); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("read on a closed client: err = %v, want ErrClientClosed", err)
	}
	if err := cl.Write(0, "late"); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("write on a closed client: err = %v, want ErrClientClosed", err)
	}
	fresh := dialClient(t, addrs, quorum.NewAll(3), WithWriter(2))
	tag, err := fresh.Read(0)
	if err != nil {
		t.Fatal(err)
	}
	if tag.Val != "init" {
		t.Fatalf("fresh client read %v; the closed client's write landed", tag.Val)
	}
}

// TestMessageCounter: over NewAll(4) a write and a read each send one
// request to every server and take one reply from each, so the counters
// read 2*4 = 8 sent and 8 received.
func TestMessageCounter(t *testing.T) {
	addrs := startCluster(t, 4, map[msg.RegisterID]msg.Value{0: "init"})
	var tc metrics.TransportCounters
	cl := dialClient(t, addrs, quorum.NewAll(4), WithTransportCounters(&tc))
	if err := cl.Write(0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Read(0); err != nil {
		t.Fatal(err)
	}
	if sent, recv := tc.MsgsSent.Value(), tc.MsgsRecv.Value(); sent != 8 || recv != 8 {
		t.Fatalf("messages sent/received = %d/%d, want 8/8", sent, recv)
	}
}

// TestDeliverCountsReplies: the transport counts MsgsRecv where it hands
// replies to the ReplySink — each read reply, write ack and stale-epoch
// reject of a batch frame once — and only when the caller passed counters.
func TestDeliverCountsReplies(t *testing.T) {
	var w msg.BatchWriter
	w.Reset(nil)
	for op := msg.OpID(1); op <= 3; op++ {
		if err := w.AddReadReply(msg.ReadReply{Op: op}); err != nil {
			t.Fatal(err)
		}
	}
	w.AddWriteAck(msg.WriteAck{Op: 4})
	w.AddWriteAck(msg.WriteAck{Op: 5})
	w.AddStaleEpoch(msg.StaleEpoch{Op: 6, View: quorum.View{Epoch: 2, Members: []int32{0}}})
	payload, err := msg.NewFrameReader(bytes.NewReader(w.Finish())).NextRaw()
	if err != nil {
		t.Fatal(err)
	}
	for _, counted := range []bool{false, true} {
		var tc metrics.TransportCounters
		tr := newTCPTransport([]string{"127.0.0.1:0"}, time.Second, &tc, nil)
		tr.countMsgs = counted
		sink := &tallySink{}
		tr.BindReplies(sink)
		if err := (*tr.conns.Load())[0].deliver(payload); err != nil {
			t.Fatal(err)
		}
		if sink.n != 6 {
			t.Fatalf("the sink got %d messages, want 6", sink.n)
		}
		want := int64(0)
		if counted {
			want = 6
		}
		if got := tc.MsgsRecv.Value(); got != want {
			t.Errorf("counting %v: MsgsRecv = %d, want %d", counted, got, want)
		}
	}
}

// tallySink counts the messages a transport hands it.
type tallySink struct{ n int }

func (s *tallySink) ReplyBatch(_ int, reads []msg.ReadReply, acks []msg.WriteAck) {
	s.n += len(reads) + len(acks)
}
func (s *tallySink) StaleEpoch(int, msg.StaleEpoch) { s.n++ }

// TestWithObserverRecordsOps: the observer's Ops histogram is the client's
// end-to-end latency record — one observation per completed operation.
func TestWithObserverRecordsOps(t *testing.T) {
	addrs := startCluster(t, 4, map[msg.RegisterID]msg.Value{0: "init"})
	obs := new(register.Observer)
	cl := dialClient(t, addrs, quorum.NewMajority(4), WithObserver(obs))
	for i := 0; i < 10; i++ {
		if err := cl.Write(0, i); err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Read(0); err != nil {
			t.Fatal(err)
		}
	}
	if got := obs.Ops.Count(); got != 20 {
		t.Fatalf("latency observations = %d, want 20", got)
	}
	if obs.Ops.Quantile(0.99) <= 0 {
		t.Fatal("p99 latency not positive")
	}
}

// TestTraceRecordingAndProperties: a writer and a monotone reader over
// 2-of-6 quorums share a trace; it records every operation and satisfies
// well-formedness, [R2] and [R4].
func TestTraceRecordingAndProperties(t *testing.T) {
	addrs := startCluster(t, 6, map[msg.RegisterID]msg.Value{0: "init"})
	log := &trace.Log{}
	w := dialClient(t, addrs, quorum.NewProbabilistic(6, 2), WithWriter(1), WithSeed(1), WithTrace(log))
	r := dialClient(t, addrs, quorum.NewProbabilistic(6, 2), WithWriter(2), WithSeed(2), WithTrace(log), WithMonotone())
	for i := 0; i < 100; i++ {
		if err := w.Write(0, i); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Read(0); err != nil {
			t.Fatal(err)
		}
	}
	ops := log.Ops()
	if len(ops) != 200 {
		t.Fatalf("recorded %d ops, want 200", len(ops))
	}
	if err := trace.CheckWellFormed(ops); err != nil {
		t.Fatal(err)
	}
	if err := trace.CheckReadsFrom(ops); err != nil {
		t.Fatal(err)
	}
	if err := trace.CheckMonotone(ops); err != nil {
		t.Fatal(err)
	}
}

// TestProbabilisticEventuallyPropagates: with 3-of-9 quorums, below the
// strict threshold, repeated monotone reads eventually observe a completed
// write.
func TestProbabilisticEventuallyPropagates(t *testing.T) {
	addrs := startCluster(t, 9, map[msg.RegisterID]msg.Value{0: "init"})
	w := dialClient(t, addrs, quorum.NewProbabilistic(9, 3), WithWriter(1), WithSeed(1))
	r := dialClient(t, addrs, quorum.NewProbabilistic(9, 3), WithWriter(2), WithSeed(2), WithMonotone())
	if err := w.Write(0, "target"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		tag, err := r.Read(0)
		if err != nil {
			t.Fatal(err)
		}
		if tag.Val == "target" {
			return
		}
	}
	t.Fatal("1000 probabilistic reads never saw the write (q ~ 0.7 per read)")
}

// TestReadRepairOverTCP: a repairing read over all five servers finds the
// four that missed a write and pushes the value to each of them.
func TestReadRepairOverTCP(t *testing.T) {
	addrs, servers := pipeCluster(t, 5, map[msg.RegisterID]msg.Value{0: "init"})
	w := dialClient(t, addrs, quorum.NewSingleton(5, 0), WithWriter(1))
	if err := w.Write(0, "seed"); err != nil {
		t.Fatal(err)
	}
	r := dialClient(t, addrs, quorum.NewAll(5), WithWriter(2), WithReadRepair())
	if _, err := r.Read(0); err != nil {
		t.Fatal(err)
	}
	if got := r.Repairs(); got != 4 {
		t.Fatalf("repairs = %d, want 4", got)
	}
	// The repairs are fire-and-forget: give them a moment to land.
	deadline := time.Now().Add(time.Second)
	for s, srv := range servers {
		for srv.Store().Get(0).Val != "seed" {
			if time.Now().After(deadline) {
				t.Fatalf("server %d never repaired", s)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// TestReadAtomicSpreadsValues: atomic reads in flight at once over four
// registers each leave the value they return on every server of their
// quorum before they complete.
func TestReadAtomicSpreadsValues(t *testing.T) {
	const regs = 4
	initial := map[msg.RegisterID]msg.Value{}
	for reg := msg.RegisterID(0); reg < regs; reg++ {
		initial[reg] = "init"
	}
	addrs, servers := pipeCluster(t, 5, initial)
	w := dialClient(t, addrs, quorum.NewSingleton(5, 0), WithWriter(1))
	for reg := msg.RegisterID(0); reg < regs; reg++ {
		if err := w.Write(reg, int(reg)); err != nil {
			t.Fatal(err)
		}
	}
	r := dialClient(t, addrs, quorum.NewAll(5), WithWriter(2))
	ops := make([]*register.PendingOp, regs)
	for reg := range ops {
		ops[reg] = r.ReadAtomicAsyncFunc(msg.RegisterID(reg), nil)
	}
	for reg, op := range ops {
		tag, err := op.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if tag.Val != reg {
			t.Fatalf("atomic read of register %d = %v", reg, tag.Val)
		}
	}
	for s, srv := range servers {
		for reg := msg.RegisterID(0); reg < regs; reg++ {
			if got := srv.Store().Get(reg); got.Val != int(reg) {
				t.Fatalf("server %d missed the write-back of register %d: %+v", s, reg, got)
			}
		}
	}
}
