package tcp

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"probquorum/internal/metrics"
	"probquorum/internal/msg"
	"probquorum/internal/quorum"
	"probquorum/internal/register"
	"probquorum/internal/replica"
	"probquorum/internal/rng"
	"probquorum/internal/transport"
)

// dialRawBinary opens one raw connection to addr; frames are the caller's
// business.
func dialRawBinary(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	return conn
}

// encodeBatchFrame builds one batch request frame from msgs.
func encodeBatchFrame(t *testing.T, msgs ...any) []byte {
	t.Helper()
	frame, err := msg.AppendMessage(nil, msg.Batch{Msgs: msgs})
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// TestServeAllocGate pins the steady-state binary serve loop — coalesced
// replies in a pooled buffer, concrete request walk, replies encoded
// straight from the store's slots — at zero server allocations per read,
// whatever the stored value is, and at the request decoder's own allocations
// per write. The client side of the exchange is a raw connection driven with
// pre-encoded frames and a hoisted reply visitor, so testing.AllocsPerRun
// (which counts mallocs process-wide) sees only the server's serve and reply
// paths.
func TestServeAllocGate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	row := make([]float64, 34)
	for i := range row {
		row[i] = float64(i) + 0.5
	}
	const batch = 16
	tests := []struct {
		name string
		val  msg.Value
		// perWrite is what decoding one WriteReq carrying val allocates before
		// the store sees it: the box behind the any, and for a row the slice
		// under it. The store adds nothing — an overwrite reuses its slot (and
		// its side-list index) — and a read allocates nothing at all.
		perWrite float64
	}{
		{"nil", nil, 0},
		{"uint64", uint64(1) << 40, 1}, // past the runtime's small-integer cache
		{"row34", row, 2},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			store := replica.New(0, map[msg.RegisterID]msg.Value{0: tt.val})
			srv, err := Listen(store, "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			conn := dialRawBinary(t, srv.Addr())

			// One frame of reads of the stored value, one of writes re-offering
			// the same tag: the repeated write installs nothing after the
			// first round, which is the steady state of a converged register.
			var reads, writes []any
			for i := 0; i < batch; i++ {
				reads = append(reads, msg.ReadReq{Reg: 0, Op: msg.OpID(100 + i)})
				writes = append(writes, msg.WriteReq{Reg: 1, Op: msg.OpID(200 + i),
					Tag: msg.Tagged{TS: msg.Timestamp{Seq: 1}, Val: tt.val}})
			}

			fr := msg.NewFrameReader(conn)
			var got int
			vis := msg.BatchVisitor{
				ReadReply: func(m msg.ReadReply) bool {
					if !reflect.DeepEqual(m.Tag.Val, tt.val) {
						t.Errorf("read reply carries %#v, want %#v", m.Tag.Val, tt.val)
					}
					got++
					return true
				},
				WriteAck: func(msg.WriteAck) bool { got++; return true },
			}
			// decode=false counts a reply frame's elements from its header
			// (kind byte, then the count) instead of visiting them: decoding a
			// read reply allocates its value on this side of the socket, which
			// AllocsPerRun would charge to the server.
			roundTrip := func(frame []byte, decode bool) func() {
				return func() {
					if _, err := conn.Write(frame); err != nil {
						t.Fatal(err)
					}
					got = 0
					for got < batch {
						payload, err := fr.NextRaw()
						if err != nil {
							t.Fatal(err)
						}
						if !msg.IsBatchPayload(payload) {
							t.Fatalf("reply is not a batch frame: % x", payload)
						}
						if !decode {
							got += int(binary.BigEndian.Uint32(payload[1:]))
						} else if _, err := msg.VisitBatchPayload(payload, vis); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			roundTrip(encodeBatchFrame(t, reads...), true)() // the replies are the stored value
			readTrip := roundTrip(encodeBatchFrame(t, reads...), false)
			writeTrip := roundTrip(encodeBatchFrame(t, writes...), true)
			// Warm up: install reg 1, grow the server's reply buffers and the
			// FrameReader window to steady state.
			for i := 0; i < 100; i++ {
				readTrip()
				writeTrip()
			}
			if allocs := testing.AllocsPerRun(100, readTrip); allocs != 0 {
				t.Errorf("steady-state serve loop: %.1f allocs per %d-read batch, want 0", allocs, batch)
			}
			allocs, want := testing.AllocsPerRun(100, writeTrip), tt.perWrite*batch
			t.Logf("%.1f allocs per %d-write batch", allocs, batch)
			if allocs > want {
				t.Errorf("steady-state serve loop: %.1f allocs per %d-write batch, want <= %.0f (the decoder's)", allocs, batch, want)
			}
		})
	}
}

// sealedTransport hides the ReplyBinder seam of the transport it wraps, so
// a register.Keyspace built over it takes the boxed delivery path — the
// ablation arm of the client-decode gate below.
type sealedTransport struct{ transport.Transport }

// dialGateClient mirrors Dial's construction with the pieces the gate needs:
// a one-shard register.Keyspace over a tcpTransport, optionally sealed to
// force boxed reply delivery.
func dialGateClient(t *testing.T, addrs []string, writer int32, sealed bool) *register.Keyspace {
	t.Helper()
	engine := register.NewEngine(writer, quorum.NewMajority(len(addrs)),
		rng.Derive(1, fmt.Sprintf("serve_test.gate.%d", writer)))
	tr := newTCPTransport(addrs, defaultOpTimeout, &metrics.TransportCounters{}, nil)
	if err := tr.start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = tr.Close() })
	var rt transport.Transport = tr
	if sealed {
		rt = sealedTransport{tr}
	}
	return register.NewKeyspaceOver([]*register.Engine{engine}, rt, register.PipeTimeout(defaultOpTimeout, 0))
}

// TestClientDecodeAllocGate pins the one-shard client's de-boxed reply decode
// (transport.ReplySink all the way into the Operation) at no more
// allocations than the boxed any path it replaces.
func TestClientDecodeAllocGate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	addrs := startCluster(t, 3, map[msg.RegisterID]msg.Value{0: nil})
	boxed := dialGateClient(t, addrs, 1, true)
	unboxed := dialGateClient(t, addrs, 2, false)

	opPair := func(c *register.Keyspace) func() {
		return func() {
			if err := c.Write(0, nil); err != nil {
				t.Fatal(err)
			}
			if _, err := c.Read(0); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 50; i++ {
		opPair(boxed)()
		opPair(unboxed)()
	}
	boxedAllocs := testing.AllocsPerRun(200, opPair(boxed))
	unboxedAllocs := testing.AllocsPerRun(200, opPair(unboxed))
	if unboxedAllocs > boxedAllocs {
		t.Errorf("de-boxed reply decode allocates %.1f/op-pair, boxed path %.1f — de-boxing added allocations",
			unboxedAllocs, boxedAllocs)
	}
	t.Logf("blocking client allocs per write+read pair: boxed %.1f, de-boxed %.1f",
		boxedAllocs, unboxedAllocs)
}

// pipeListener hands the server net.Pipe ends, each wrapped to count the
// serve loop's reads and writes. A Write on the client end reaches the server
// in one Read whenever the server's window has room for it, so a test decides
// exactly which request frames the serve loop sees per read.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

// Close is called once, by Server.Close.
func (l *pipeListener) Close() error {
	close(l.done)
	return nil
}

func (l *pipeListener) Addr() net.Addr { return &net.UnixAddr{Name: "pipe", Net: "pipe"} }

// dial connects one client end to the server and returns it with the
// server end's counters.
func (l *pipeListener) dial(t *testing.T) (net.Conn, *countingConn) {
	t.Helper()
	client, server := net.Pipe()
	t.Cleanup(func() { _ = client.Close() })
	sc := &countingConn{Conn: server}
	l.conns <- sc
	return client, sc
}

// countingConn counts the serve loop's non-empty reads and its writes.
type countingConn struct {
	net.Conn
	reads, writes atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.reads.Add(1)
	}
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// TestServeWritesOncePerRead pins when the serve loop writes: the request
// frames that arrive in one read are answered in exactly one conn.Write,
// issued before the loop reads again. The client sends nothing after its one
// Write, so a flush that waited for the next read would leave it without its
// replies. A snapshot reply rides the same write as a standalone frame,
// behind the batch replies to the requests that preceded it.
func TestServeWritesOncePerRead(t *testing.T) {
	store := replica.New(0, map[msg.RegisterID]msg.Value{0: 1.5})
	ln := newPipeListener()
	srv := Serve(store, ln)
	defer srv.Close()

	lone := func(m any) []byte {
		f, err := msg.AppendMessage(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	reads := func(from, n int) []any {
		var reqs []any
		for i := 0; i < n; i++ {
			reqs = append(reqs, msg.ReadReq{Reg: 0, Op: msg.OpID(from + i)})
		}
		return reqs
	}
	write := msg.WriteReq{Reg: 1, Op: 50, Tag: msg.Tagged{TS: msg.Timestamp{Seq: 1}, Val: 2.5}}
	var eight [][]byte
	for i := 0; i < 8; i++ {
		eight = append(eight, lone(msg.ReadReq{Reg: 0, Op: msg.OpID(10 + i)}))
	}
	for _, tc := range []struct {
		name    string
		frames  [][]byte
		replies int  // reply elements, plus standalone frames
		snap    bool // the last reply is a standalone SnapReply
	}{
		{"lone frame", [][]byte{lone(msg.ReadReq{Reg: 0, Op: 1})}, 1, false},
		{"eight lone frames", eight, 8, false},
		{"batch and lone frames", [][]byte{encodeBatchFrame(t, reads(20, 16)...), lone(write), encodeBatchFrame(t, reads(40, 4)...)}, 21, false},
		{"batch, then a snapshot", [][]byte{encodeBatchFrame(t, reads(60, 3)...), lone(msg.SnapReq{Op: 70})}, 4, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			client, sc := ln.dial(t)
			_ = client.SetReadDeadline(time.Now().Add(10 * time.Second))
			if _, err := client.Write(bytes.Join(tc.frames, nil)); err != nil {
				t.Fatal(err)
			}
			fr := msg.NewFrameReader(client)
			for got := 0; got < tc.replies; {
				payload, err := fr.NextRaw()
				if err != nil {
					t.Fatalf("after %d of %d replies: %v", got, tc.replies, err)
				}
				if msg.IsBatchPayload(payload) {
					got += int(binary.BigEndian.Uint32(payload[1:]))
					continue
				}
				m, err := msg.DecodePayload(payload)
				if _, ok := m.(msg.SnapReply); !ok || err != nil || !tc.snap || got != tc.replies-1 {
					t.Fatalf("standalone %T (err %v) after %d of %d replies; want only a final SnapReply", m, err, got, tc.replies)
				}
				got++
			}
			if r, w := sc.reads.Load(), sc.writes.Load(); r != 1 || w != 1 {
				t.Errorf("server: %d reads, %d writes; want the frames of one read answered in one write", r, w)
			}
		})
	}
}

// waitGoroutines fails the test unless the goroutine count falls back to
// before within a few seconds.
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before serving, %d after Close", before, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// liveHeap is the heap still reachable after a collection.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestSlowReaderStallsOnlyItself pins the reply backpressure policy: a client
// that requests 64 KiB values and never reads its replies parks its serve
// loop in Write — TCP backpressure, so the client's own writes stall next —
// while the replies the server holds for it stay bounded by replyQueueLimit
// plus one, a second client is still served, and Server.Close returns with
// the loop parked, leaving no goroutine behind.
func TestSlowReaderStallsOnlyItself(t *testing.T) {
	before := runtime.NumGoroutine()
	big := make([]float64, 8<<10) // 64 KiB per reply
	store := replica.New(0, map[msg.RegisterID]msg.Value{0: big})
	sm := metrics.NewServerMetrics()
	srv, err := Listen(store, "127.0.0.1:0", WithServerMetrics(sm))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	heapBefore := liveHeap()

	slow := dialRawBinary(t, srv.Addr())
	// Keep requesting the value without ever reading a reply, until a write
	// stalls: both sockets' buffers are full because the serve loop has
	// stopped reading — it is parked in Write.
	var op msg.OpID
	giveUp := time.Now().Add(20 * time.Second)
	for stalled := false; !stalled; {
		if time.Now().After(giveUp) {
			t.Fatalf("slow client's writes never stalled (largest reply write %d)", sm.QueueDepth.Max())
		}
		var reqs []any
		for i := 0; i < 16; i++ {
			op++
			reqs = append(reqs, msg.ReadReq{Reg: 0, Op: op})
		}
		_ = slow.SetWriteDeadline(time.Now().Add(time.Second))
		var ne net.Error
		switch _, err := slow.Write(encodeBatchFrame(t, reqs...)); {
		case errors.As(err, &ne) && ne.Timeout():
			stalled = true
		case err != nil:
			t.Fatalf("slow client's write failed: %v; the server dropped it", err)
		}
	}
	reply := int64(len(big) * 8)
	if most, bound := sm.QueueDepth.Max(), replyQueueLimit/reply+1; most == 0 || most > bound {
		t.Errorf("largest reply write carried %d replies, want 1..%d", most, bound)
	}
	if !raceEnabled {
		// The pending replies (≤ replyQueueLimit + one reply) and the read
		// window; the kernel holds the rest.
		if held := liveHeap() - heapBefore; held > 2*replyQueueLimit {
			t.Errorf("server holds %d bytes of live heap for a client that does not read, want <= %d", held, 2*replyQueueLimit)
		}
	}

	healthy := dialRawBinary(t, srv.Addr())
	_ = healthy.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := healthy.Write(encodeBatchFrame(t, msg.ReadReq{Reg: 0, Op: 1})); err != nil {
		t.Fatal(err)
	}
	payload, err := msg.NewFrameReader(healthy).NextRaw()
	if err != nil {
		t.Fatalf("second client, next to the stalled one: %v", err)
	}
	if !msg.IsBatchPayload(payload) || binary.BigEndian.Uint32(payload[1:]) != 1 {
		t.Fatalf("second client got % x, want one batch frame of one reply", payload[:min(len(payload), 9)])
	}

	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Server.Close did not return with a serve loop parked in Write")
	}
	waitGoroutines(t, before)
}

// TestServerCloseNoGoroutineLeak pins the connection lifecycle: serving
// connections spawns one goroutine each, and Server.Close joins every one.
func TestServerCloseNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	store := replica.New(0, map[msg.RegisterID]msg.Value{0: nil})
	srv, err := Listen(store, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	conns := make([]net.Conn, 0, 8)
	for i := 0; i < 8; i++ {
		conn := dialRawBinary(t, srv.Addr())
		conns = append(conns, conn)
		if _, err := conn.Write(encodeBatchFrame(t, msg.ReadReq{Reg: 0, Op: msg.OpID(i + 1)})); err != nil {
			t.Fatal(err)
		}
		fr := msg.NewFrameReader(conn)
		if _, err := fr.NextRaw(); err != nil {
			t.Fatal(err)
		}
	}
	srv.Close() // must join every serve goroutine
	for _, c := range conns {
		_ = c.Close()
	}
	waitGoroutines(t, before)
}

// TestServeCoalescedEpochEcho pins reply coalescing across a view change at
// the wire level: a batch mixing requests stamped with the server's current
// epoch and with an outdated one — exactly what a client's writer coalesces
// when a reconfiguration lands mid-stream — comes back in coalesced frames
// where every element echoes its own request's epoch. Stale rejects carry
// the stale request's epoch (never the batch-mates' newer one) plus the
// replacement view; current-epoch requests are served normally.
func TestServeCoalescedEpochEcho(t *testing.T) {
	store := replica.New(0, map[msg.RegisterID]msg.Value{0: 1.5})
	if !store.SetView(quorum.View{Epoch: 2, Members: []int32{0}, Addrs: []string{"127.0.0.1:1"}}) {
		t.Fatal("SetView rejected the test view")
	}
	srv, err := Listen(store, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn := dialRawBinary(t, srv.Addr())

	tag := msg.Tagged{TS: msg.Timestamp{Seq: 9}, Val: 2.5}
	frame := encodeBatchFrame(t,
		msg.ReadReq{Reg: 0, Op: 11, Epoch: 2},
		msg.ReadReq{Reg: 0, Op: 12, Epoch: 1}, // stale: view change already landed
		msg.WriteReq{Reg: 0, Op: 13, Tag: tag, Epoch: 2},
		msg.WriteReq{Reg: 0, Op: 14, Tag: tag, Epoch: 1}, // stale
	)
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}

	replies := make(map[msg.OpID]any)
	frames := 0
	fr := msg.NewFrameReader(conn)
	for len(replies) < 4 {
		payload, err := fr.NextRaw()
		if err != nil {
			t.Fatal(err)
		}
		if !msg.IsBatchPayload(payload) {
			t.Fatalf("reply arrived outside a batch frame (kind %d)", payload[0])
		}
		frames++
		if _, err := msg.VisitBatchPayload(payload, msg.BatchVisitor{
			ReadReply:  func(m msg.ReadReply) bool { replies[m.Op] = m; return true },
			WriteAck:   func(m msg.WriteAck) bool { replies[m.Op] = m; return true },
			StaleEpoch: func(m msg.StaleEpoch) bool { replies[m.Op] = m; return true },
		}); err != nil {
			t.Fatal(err)
		}
	}
	if frames > 2 {
		t.Errorf("4 replies arrived in %d frames; coalescing is not happening", frames)
	}

	if m, ok := replies[11].(msg.ReadReply); !ok || m.Epoch != 2 {
		t.Errorf("op 11: got %#v, want ReadReply echoing epoch 2", replies[11])
	}
	if m, ok := replies[13].(msg.WriteAck); !ok || m.Epoch != 2 {
		t.Errorf("op 13: got %#v, want WriteAck echoing epoch 2", replies[13])
	}
	for _, op := range []msg.OpID{12, 14} {
		m, ok := replies[op].(msg.StaleEpoch)
		if !ok {
			t.Errorf("op %d: got %#v, want StaleEpoch", op, replies[op])
			continue
		}
		if m.Epoch != 1 {
			t.Errorf("op %d: stale reject echoes epoch %d, want the request's epoch 1 even inside a mixed frame", op, m.Epoch)
		}
		if m.View.Epoch != 2 {
			t.Errorf("op %d: reject carries view epoch %d, want the replacement view 2", op, m.View.Epoch)
		}
	}
}

// TestCloseLeavesNoGoroutines: after a workload, closing the client and then
// every server joins every goroutine either side started.
func TestCloseLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	addrs := make([]string, 8)
	servers := make([]*Server, 8)
	for i := range servers {
		srv, err := Listen(replica.New(msg.NodeID(i), map[msg.RegisterID]msg.Value{0: 0}), "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		servers[i], addrs[i] = srv, srv.Addr()
	}
	cl, err := Dial(addrs, quorum.NewMajority(8))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := cl.Write(0, i); err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Read(0); err != nil {
			t.Fatal(err)
		}
	}
	cl.Close()
	for _, srv := range servers {
		srv.Close()
	}
	waitGoroutines(t, before)
}
