package tcp

import (
	"errors"
	"net"
	"runtime"
	"sync"
	"testing"

	"probquorum/internal/metrics"
	"probquorum/internal/msg"
	"probquorum/internal/obs"
)

// writeRecorder is the client end of a pipe that records the size of every
// Write the connection's writer issues.
type writeRecorder struct {
	net.Conn
	mu     sync.Mutex
	writes []int
}

func (w *writeRecorder) Write(p []byte) (int, error) {
	w.mu.Lock()
	w.writes = append(w.writes, len(p))
	w.mu.Unlock()
	return w.Conn.Write(p)
}

// pipeConn returns a connection slot wired to one end of an in-memory
// pipe (no dial, no reader), and the peer end. The caller starts the writer.
func pipeConn(t *testing.T, tc *metrics.TransportCounters, hist *metrics.IntHistogram) (*netConn, *writeRecorder, net.Conn) {
	t.Helper()
	client, server := net.Pipe()
	t.Cleanup(func() { client.Close(); server.Close() })
	tr := newTCPTransport([]string{"pipe"}, 0, tc, defaultMaxBatch, hist)
	nc := (*tr.conns.Load())[0]
	rec := &writeRecorder{Conn: client}
	nc.conn = rec
	nc.gen = 1
	return nc, rec, server
}

func startWriter(t *testing.T, nc *netConn) {
	t.Helper()
	nc.wg.Add(1)
	go nc.writeLoop()
	t.Cleanup(func() {
		close(nc.stop)
		nc.wg.Wait()
	})
}

// readRequests decodes frames from conn until it has seen total requests,
// handing each to visit in wire order, and returns the largest frame seen.
func readRequests(t *testing.T, conn net.Conn, total int, visit func(any)) (maxFrame int) {
	t.Helper()
	fr := msg.NewFrameReader(conn)
	for seen := 0; seen < total; {
		m, err := fr.Next()
		if err != nil {
			t.Errorf("after %d of %d requests: %v", seen, total, err)
			return maxFrame
		}
		batch, ok := m.(msg.Batch)
		if !ok {
			t.Errorf("frame payload is %T, want msg.Batch", m)
			return maxFrame
		}
		maxFrame = max(maxFrame, len(batch.Msgs))
		for _, el := range batch.Msgs {
			visit(el)
		}
		seen += len(batch.Msgs)
	}
	return maxFrame
}

// TestSendQueueOrderSurvivesSwaps: the writer takes the queue a whole slice
// at a time while senders keep appending to the other one; every sender's
// requests must still reach the wire in the order it sent them, none lost or
// doubled, in frames of at most maxBatch.
func TestSendQueueOrderSurvivesSwaps(t *testing.T) {
	const senders, perSender = 8, 3000
	hist := metrics.NewIntHistogram()
	nc, _, server := pipeConn(t, nil, hist)
	startWriter(t, nc)

	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 1; i <= perSender; i++ {
				req := msg.ReadReq{Reg: msg.RegisterID(s), Op: msg.OpID(i)}
				for nc.enqueue(req) != nil {
					runtime.Gosched() // queue full: the writer is behind
				}
			}
		}(s)
	}
	next := make([]msg.OpID, senders)
	maxFrame := readRequests(t, server, senders*perSender, func(el any) {
		req, ok := el.(msg.ReadReq)
		if !ok {
			t.Errorf("element %#v, want a ReadReq", el)
			return
		}
		if next[req.Reg]++; req.Op != next[req.Reg] {
			t.Errorf("sender %d: got op %d where op %d was due", req.Reg, req.Op, next[req.Reg])
			next[req.Reg] = req.Op
		}
	})
	wg.Wait()
	if maxFrame > defaultMaxBatch || hist.Max() > defaultMaxBatch {
		t.Errorf("largest frame carried %d requests (histogram max %d), cap is %d", maxFrame, hist.Max(), defaultMaxBatch)
	}
	if hist.Max() != maxFrame {
		t.Errorf("batch histogram max %d, largest frame on the wire %d", hist.Max(), maxFrame)
	}
}

// TestSendQueueBurstSplitsWrites: a burst that encodes to more than
// clientCoalesceBytes goes out in several writes, each cut at the first frame
// boundary past the cap, and every request arrives, in order. The writer saw
// the whole burst at its one swap, which is what SendQueueMax reads.
func TestSendQueueBurstSplitsWrites(t *testing.T) {
	const burst = 200
	val := make([]float64, 1000) // 8 KB a request: 200 of them is 6 writes' worth
	reg := obs.NewRegistry()
	tc := new(metrics.TransportCounters).Register("tcp.client", reg)
	nc, rec, server := pipeConn(t, tc, nil)
	for i := 1; i <= burst; i++ {
		if err := nc.enqueue(msg.WriteReq{Reg: 1, Op: msg.OpID(i), Tag: msg.Tagged{Val: val}}); err != nil {
			t.Fatalf("enqueue %d: %v", i, err)
		}
	}
	startWriter(t, nc)

	due := msg.OpID(1)
	maxFrame := readRequests(t, server, burst, func(el any) {
		if req, ok := el.(msg.WriteReq); !ok || req.Op != due {
			t.Errorf("got %#v where WriteReq op %d was due", el, due)
		}
		due++
	})
	if maxFrame > defaultMaxBatch {
		t.Errorf("largest frame carried %d requests, cap is %d", maxFrame, defaultMaxBatch)
	}

	frame, err := msg.AppendMessage(nil, msg.Batch{Msgs: []any{msg.WriteReq{Tag: msg.Tagged{Val: val}}}})
	if err != nil {
		t.Fatal(err)
	}
	frameBytes := defaultMaxBatch * len(frame) // upper bound on one full frame
	rec.mu.Lock()
	writes := append([]int(nil), rec.writes...)
	rec.mu.Unlock()
	total := 0
	for i, w := range writes {
		total += w
		if w >= clientCoalesceBytes+frameBytes {
			t.Errorf("write %d is %d bytes: more than one frame past the %d cap", i, w, clientCoalesceBytes)
		}
		if i < len(writes)-1 && w < clientCoalesceBytes {
			t.Errorf("write %d is %d bytes: cut short of the %d cap with requests still pending", i, w, clientCoalesceBytes)
		}
	}
	if want := total/(clientCoalesceBytes+frameBytes) + 1; len(writes) < want || len(writes) < 2 {
		t.Errorf("%d bytes left in %d writes, want at least %d", total, len(writes), max(want, 2))
	}
	if got := reg.Snapshot().Gauges["tcp.client.send_queue_max"].Max; got != burst {
		t.Errorf("tcp.client.send_queue_max high-water mark = %d, want the burst of %d", got, burst)
	}
}

// TestSendQueueBoundCountsWriterShare: requests the writer has swapped out but
// not yet written are still unwritten, so with the writer stuck in a Write
// the connection refuses at pipeOutBuffer in total — not at pipeOutBuffer
// queued behind another burst in the writer's hands — and accepts again once
// the burst is on the wire.
func TestSendQueueBoundCountsWriterShare(t *testing.T) {
	var tc metrics.TransportCounters
	nc, _, server := pipeConn(t, &tc, nil)
	startWriter(t, nc)
	defer server.Close() // a failed run must not leave the writer stuck in its Write

	// Nobody reads the pipe yet: the writer takes the first request and blocks.
	if err := nc.enqueue(msg.ReadReq{Op: 1}); err != nil {
		t.Fatal(err)
	}
	for held := 0; held != 1; runtime.Gosched() {
		nc.qmu.Lock()
		held = nc.held
		nc.qmu.Unlock()
	}
	for i := 2; i <= pipeOutBuffer; i++ {
		if err := nc.enqueue(msg.ReadReq{Op: msg.OpID(i)}); err != nil {
			t.Fatalf("request %d of %d unwritten: %v", i, pipeOutBuffer, err)
		}
	}
	if err := nc.enqueue(msg.ReadReq{}); !errors.Is(err, errSendQueueFull) {
		t.Fatalf("request %d unwritten: err = %v, want errSendQueueFull", pipeOutBuffer+1, err)
	}
	if got := tc.SendDrops.Value(); got != 1 {
		t.Errorf("SendDrops = %d, want 1", got)
	}

	due := msg.OpID(1)
	readRequests(t, server, pipeOutBuffer, func(el any) {
		if req, ok := el.(msg.ReadReq); !ok || req.Op != due {
			t.Errorf("got %#v where ReadReq op %d was due", el, due)
		}
		due++
	})
	// The last Write has returned once the reader saw its bytes; the release
	// follows it.
	for held := 1; held != 0; runtime.Gosched() {
		nc.qmu.Lock()
		held = nc.held
		nc.qmu.Unlock()
	}
	if err := nc.enqueue(msg.ReadReq{}); err != nil {
		t.Errorf("send after the burst was written: %v", err)
	}
	readRequests(t, server, 1, func(any) {}) // the writer is idle again before cleanup
}

// TestClosedConnRefusesAndReleases: close drops what was queued, and a
// hand-off after it is refused rather than parked where nothing drains it.
func TestClosedConnRefusesAndReleases(t *testing.T) {
	tr := newTCPTransport([]string{"127.0.0.1:1"}, 0, nil, defaultMaxBatch, nil)
	nc := (*tr.conns.Load())[0]
	for i := 0; i < 10; i++ {
		if err := tr.Send(0, msg.ReadReq{Op: msg.OpID(i)}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	_ = tr.Close()
	if nc.queue != nil {
		t.Errorf("closed connection still holds %d queued requests", len(nc.queue))
	}
	if err := tr.Send(0, msg.ReadReq{}); !errors.Is(err, ErrClientClosed) {
		t.Errorf("send on a closed connection: err = %v, want ErrClientClosed", err)
	}
}
