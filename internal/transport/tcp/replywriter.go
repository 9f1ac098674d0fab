package tcp

import (
	"net"
	"sync"

	"probquorum/internal/metrics"
	"probquorum/internal/msg"
	"probquorum/internal/replica"
)

// replyQueueLimit bounds how many bytes of coalesced replies may sit unsent
// on one connection before the server declares the reader too slow and drops
// the connection instead of letting the apply loop block behind it. It stays
// under the encode-buffer pool's recycling cap so a backpressure burst never
// produces buffers the pool refuses to take back.
const replyQueueLimit = 1 << 20

// replyWriter owns the write half of one binary server connection: the serve
// loop appends replies as it applies requests, and a dedicated goroutine
// coalesces whatever has accumulated into a single msg.Batch frame per
// conn.Write — the server-side mirror of the client's per-server writer
// goroutines. Replies build up in a pooled double buffer: the writer swaps
// the full buffer out under the lock and writes it outside the lock, so the
// apply loop never waits on the socket.
type replyWriter struct {
	conn net.Conn
	m    *metrics.ServerMetrics

	mu    sync.Mutex
	w     msg.BatchWriter // open batch at the tail of *cur
	raw   int             // bytes of completed standalone frames before the open batch
	cur   *[]byte         // pooled buffer the serve loop appends into
	spare *[]byte         // pooled buffer the flusher swaps in
	dead  bool

	notify chan struct{} // capacity 1: "something is pending"
	stop   chan struct{}
	done   chan struct{}
}

func newReplyWriter(conn net.Conn, m *metrics.ServerMetrics) *replyWriter {
	rw := &replyWriter{
		conn:   conn,
		m:      m,
		cur:    msg.GetEncodeBuf(),
		spare:  msg.GetEncodeBuf(),
		notify: make(chan struct{}, 1),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	rw.w.Reset((*rw.cur)[:0])
	go rw.run()
	return rw
}

// begin pins the reply buffer for one incoming request frame: the serve loop
// holds the lock across every element of the frame and releases it with end,
// so the per-element appends below are plain buffer writes with no locking
// or writer wake-ups of their own. It reports whether the connection is
// still usable.
func (rw *replyWriter) begin() bool {
	rw.mu.Lock()
	if rw.dead {
		rw.mu.Unlock()
		return false
	}
	return true
}

// end releases the frame lock taken by begin, settles backpressure, and
// wakes the writer if replies are pending. It reports whether the connection
// survived the frame.
func (rw *replyWriter) end() bool {
	if rw.dead {
		// Marked dead mid-frame, which only fits() does: the peer is reading
		// too slowly and more than replyQueueLimit bytes of replies piled up.
		// Drop the connection rather than stall the serve loop or hold
		// unbounded reply memory; the client sees the close as a crash
		// signal, like any other connection loss.
		pending := rw.w.Count()
		rw.mu.Unlock()
		if rw.m != nil {
			rw.m.QueueDepth.Set(int64(pending)) // record the high-water mark the drop saw
			rw.m.SlowConnDrops.Inc()
		}
		_ = rw.conn.Close()
		return false
	}
	pending := rw.w.Count()
	hasData := pending > 0 || rw.raw > 0
	rw.mu.Unlock()
	if rw.m != nil && pending > 0 {
		rw.m.QueueDepth.Set(int64(pending))
	}
	if hasData {
		select {
		case rw.notify <- struct{}{}:
		default:
		}
	}
	return true
}

// addRead appends store's reply to one read request, encoded straight from
// the store's slot into the open batch; the caller holds the frame lock via
// begin. It reports whether the connection should go on: false for a crashed
// store (closing the connection is the client's crash signal), a value the
// codec cannot carry, or no backpressure headroom.
func (rw *replyWriter) addRead(store *replica.Store, m msg.ReadReq) bool {
	if ok, err := store.AppendRead(&rw.w, m); !ok || err != nil {
		return false
	}
	return rw.fits()
}

// addWriteAck appends one write acknowledgement (frame lock held).
func (rw *replyWriter) addWriteAck(m msg.WriteAck) bool {
	rw.w.AddWriteAck(m)
	return rw.fits()
}

// addStaleEpoch appends one stale-epoch reject (frame lock held). Rejects
// ride in the same coalesced frame as ordinary replies — each element echoes
// its own request's epoch, so mixing epochs inside a frame is safe by
// construction.
func (rw *replyWriter) addStaleEpoch(m msg.StaleEpoch) bool {
	rw.w.AddStaleEpoch(m)
	return rw.fits()
}

// fits is the per-element backpressure check, a plain integer compare so the
// hot path pays no atomics or channel operations. Overflow marks the
// connection dead; end turns the mark into the actual drop.
func (rw *replyWriter) fits() bool {
	if rw.raw+rw.w.Len() > replyQueueLimit {
		rw.dead = true
		return false
	}
	return true
}

// addRaw enqueues one pre-encoded standalone frame (length prefix included)
// behind everything already pending, taking the frame lock itself — it is
// the cold path. Snapshot replies use it: a joining server reads the
// snapshot as a lone frame, so it must not be folded into a batch. The open
// batch, if any, is closed first to preserve reply order.
func (rw *replyWriter) addRaw(frame []byte) bool {
	if !rw.begin() {
		return false
	}
	buf := rw.w.Finish()
	if rw.w.Count() == 0 {
		buf = buf[:len(buf)-rw.w.Len()] // drop the open batch's empty header
	}
	buf = append(buf, frame...)
	rw.raw = len(buf)
	rw.w.Reset(buf)
	if rw.raw > replyQueueLimit {
		rw.dead = true
	}
	return rw.end()
}

func (rw *replyWriter) run() {
	defer close(rw.done)
	for {
		select {
		case <-rw.stop:
			return
		case <-rw.notify:
			if !rw.flush() {
				return
			}
		}
	}
}

// flush swaps the pending buffer out under the lock and writes it in one
// conn.Write outside it. It reports whether the connection is still alive.
func (rw *replyWriter) flush() bool {
	rw.mu.Lock()
	if rw.dead {
		rw.mu.Unlock()
		return false
	}
	count := rw.w.Count()
	out := rw.w.Finish()
	if count == 0 {
		out = out[:len(out)-rw.w.Len()] // strip the open batch's empty header
	}
	// Capture any growth back into the pooled pointer, then swap buffers so
	// the serve loop appends into the spare while out is on the wire.
	*rw.cur = out[:0]
	rw.cur, rw.spare = rw.spare, rw.cur
	rw.raw = 0
	rw.w.Reset((*rw.cur)[:0])
	rw.mu.Unlock()
	if len(out) == 0 {
		return true
	}
	if rw.m != nil {
		if count > 0 {
			rw.m.ReplyBatch.Observe(count)
		}
		rw.m.QueueDepth.Set(0)
	}
	if _, err := rw.conn.Write(out); err != nil {
		rw.mu.Lock()
		rw.dead = true
		rw.mu.Unlock()
		_ = rw.conn.Close()
		return false
	}
	return true
}

// close tears down the writer and returns its buffers to the pool. Pending
// replies are not flushed: the serve loop only closes on connection death
// (read error, malformed frame, crashed store), where the peer is gone or
// being deliberately cut off.
func (rw *replyWriter) close() {
	rw.mu.Lock()
	rw.dead = true
	rw.mu.Unlock()
	close(rw.stop)
	_ = rw.conn.Close() // unblock a writer parked in conn.Write
	<-rw.done
	msg.PutEncodeBuf(rw.cur)
	msg.PutEncodeBuf(rw.spare)
}
