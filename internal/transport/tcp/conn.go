package tcp

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"probquorum/internal/metrics"
	"probquorum/internal/msg"
	"probquorum/internal/quorum"
	"probquorum/internal/transport"
)

// tcpTransport implements transport.Transport over one persistent framed
// connection per replica server: a Set's sockets. It carries no protocol
// logic: the register pipelines above it own quorums, deadlines, and
// retries; this layer owns dialing, framing, reconnect backoff, and the
// fault counters.
//
// Every set sends the same way. Send enqueues without blocking (overflow
// is a failed hand-off, returned as an error) and a per-connection writer
// goroutine coalesces the queue into batch frames of up to defaultMaxBatch
// requests, amortizing encode and syscall cost. A burst the writer cannot put
// on the wire — the re-dial failed, the write failed — surfaces as one
// per-server error delivery, like a connection death seen by the reader: no
// lost send is silent, so the client replaces the member instead of waiting
// it out.
type tcpTransport struct {
	// Per-connection configuration, fixed at construction and shared by
	// connections dialed later by Update.
	timeout  time.Duration
	counters *metrics.TransportCounters
	hist     *metrics.IntHistogram
	// countMsgs turns on counters.MsgsSent and MsgsRecv: each accepted Send,
	// and each reply or stale-epoch reject handed to the ReplySink, is one
	// message. Fault-path traffic is not counted.
	countMsgs bool

	// conns is the current server-index -> connection mapping. It is an
	// atomic pointer because membership updates replace it while Send and the
	// reader goroutines keep running; each stored slice is immutable.
	conns atomic.Pointer[[]*netConn]

	// umu orders membership updates (and Close) against each other; epoch is
	// the view epoch the current conns slice reflects (0 = static dial-time
	// endpoints). Guarded by umu.
	umu    sync.Mutex
	epoch  quorum.Epoch
	closed bool

	// sink carries errors and the closing Broadcast; rsink is where every
	// reply frame is walked to (transport.ReplyBinder). Both are atomic, not
	// mutex-guarded: the reader goroutines load rsink once per frame, and a
	// shared lock there would serialize the reply fan-in the pipelined client
	// exists to parallelize.
	sink  atomic.Pointer[transport.Sink]
	rsink atomic.Pointer[transport.ReplySink]
}

func newTCPTransport(addrs []string, timeout time.Duration, counters *metrics.TransportCounters,
	hist *metrics.IntHistogram) *tcpTransport {
	t := &tcpTransport{timeout: timeout, counters: counters, hist: hist}
	conns := make([]*netConn, len(addrs))
	for srv, addr := range addrs {
		conns[srv] = t.newConn(srv, addr)
	}
	t.conns.Store(&conns)
	return t
}

// newConn builds (but does not dial) one connection slot for server index
// srv at addr; its configuration is the transport's.
func (t *tcpTransport) newConn(srv int, addr string) *netConn {
	nc := &netConn{t: t, addr: addr, notify: make(chan struct{}, 1), stop: make(chan struct{})}
	nc.server.Store(int32(srv))
	return nc
}

// start dials every server eagerly so an unreachable address fails
// construction; later failures re-dial lazily with backoff.
func (t *tcpTransport) start() error {
	for _, nc := range *t.conns.Load() {
		nc.mu.Lock()
		err := nc.ensureLocked()
		nc.mu.Unlock()
		if err != nil {
			_ = t.Close()
			return fmt.Errorf("tcp dial %s: %w", nc.addr, err)
		}
		nc.startWriter()
	}
	return nil
}

func (t *tcpTransport) N() int { return len(*t.conns.Load()) }

func (t *tcpTransport) Bind(sink transport.Sink) {
	t.sink.Store(&sink)
}

// BindReplies installs the reply path (transport.ReplyBinder): every reply
// frame is walked straight into rs with no per-element boxing. Until it is
// bound, replies are dropped.
func (t *tcpTransport) BindReplies(rs transport.ReplySink) bool {
	t.rsink.Store(&rs)
	return true
}

func (t *tcpTransport) emit(server int, err error) {
	if sink := t.sink.Load(); sink != nil {
		(*sink)(server, nil, err)
	}
}

func (t *tcpTransport) Send(server int, req any) error {
	conns := *t.conns.Load()
	if server < 0 || server >= len(conns) {
		// A send into a view transition (the quorum was picked against a
		// larger view than the one just adopted). Callers treat the sentinel
		// like a missing reply — the operation's deadline re-issues against
		// the current view — and do not suspect the server.
		return transport.ErrNotInView
	}
	err := conns[server].enqueue(req)
	if err == nil && t.countMsgs {
		t.counters.MsgsSent.Inc()
	}
	return err
}

// Update re-targets the transport at the view's members (transport.Updater):
// connections to addresses still in the view are kept (their server index
// adjusted), joiners get fresh connection slots dialed lazily on first use,
// and leavers are detached — their in-flight replies stop being delivered
// under a stale index — and closed off the caller's path. Idempotent and
// ordered by epoch. The view must carry addresses.
func (t *tcpTransport) Update(v quorum.View) error {
	if err := v.Validate(); err != nil {
		return err
	}
	if len(v.Addrs) != len(v.Members) {
		return fmt.Errorf("tcp: view epoch %d carries no addresses", v.Epoch)
	}
	t.umu.Lock()
	defer t.umu.Unlock()
	if t.closed {
		return ErrClientClosed
	}
	if v.Epoch <= t.epoch {
		return nil
	}
	old := *t.conns.Load()
	reuse := make(map[string]*netConn, len(old))
	for _, nc := range old {
		reuse[nc.addr] = nc
	}
	next := make([]*netConn, len(v.Addrs))
	var fresh []*netConn
	for i, addr := range v.Addrs {
		if nc, ok := reuse[addr]; ok {
			delete(reuse, addr)
			// Record the connection's position under every recent epoch
			// before renumbering it: in-flight replies echo the epoch their
			// request was issued under, and must be attributed to the
			// position this server held in that epoch's view, not the one it
			// is being moved to now.
			nh := make(map[quorum.Epoch]int32, epochHistory+1)
			if oh := nc.epochIdx.Load(); oh != nil {
				for e, idx := range *oh {
					if e+epochHistory > v.Epoch {
						nh[e] = idx
					}
				}
			} else if t.epoch != 0 {
				nh[t.epoch] = nc.server.Load()
			}
			nh[v.Epoch] = int32(i)
			nc.epochIdx.Store(&nh)
			nc.server.Store(int32(i))
			next[i] = nc
			continue
		}
		nc := t.newConn(i, addr)
		nh := map[quorum.Epoch]int32{v.Epoch: int32(i)}
		nc.epochIdx.Store(&nh)
		next[i] = nc
		fresh = append(fresh, nc)
	}
	t.conns.Store(&next)
	t.epoch = v.Epoch
	for _, nc := range fresh {
		nc.startWriter()
	}
	for _, nc := range reuse {
		nc.detached.Store(true)
		go nc.close()
	}
	return nil
}

func (t *tcpTransport) Close() error {
	t.umu.Lock()
	t.closed = true
	t.umu.Unlock()
	for _, nc := range *t.conns.Load() {
		nc.close()
	}
	t.emit(transport.Broadcast, ErrClientClosed)
	return nil
}

// epochHistory bounds how many past epochs a connection keeps reply-index
// mappings for. Replies echoing an epoch older than the window are dropped
// (the issuing operation has long since re-picked); four epochs comfortably
// covers the in-flight window of any realistic reconfiguration cadence.
const epochHistory = 4

// netConn is one connection to a replica server. A connection that errors is
// dropped and transparently re-dialed on next use, with capped backoff
// between failed dial attempts so a long-gone server is not hammered.
type netConn struct {
	t *tcpTransport
	// server is this connection's current transport index — atomic because a
	// membership update may renumber a kept connection while its reader is
	// delivering. detached marks a connection dropped from the view: its
	// stale index must not label any further deliveries.
	server   atomic.Int32
	detached atomic.Bool
	// epochIdx maps recent membership epochs to the index this connection
	// held under each (immutable maps, swapped whole by Update). Replies echo
	// the epoch their request was issued under; labeling them through this
	// map keeps a reply that races a renumbering Update attributed to the
	// replier's position in the issuing view. nil until the first Update:
	// with only dial-time numbering there is nothing to translate.
	epochIdx atomic.Pointer[map[quorum.Epoch]int32]
	addr     string
	stop     chan struct{} // stops the writer goroutine

	// The send queue. Send appends to queue under qmu — the slice
	// grows with the traffic and refuses at pipeOutBuffer pending requests —
	// and signals notify (capacity 1: "something is pending") when it turns
	// the queue non-empty; the writer goroutine swaps the whole slice out per
	// wake, one lock round per burst. held counts the requests of that burst
	// the writer has not yet put on the wire: they are still unwritten, so
	// they count against pipeOutBuffer like the queued ones. qclosed refuses
	// hand-offs after close.
	qmu     sync.Mutex
	queue   []any
	held    int
	qclosed bool
	notify  chan struct{}

	wg sync.WaitGroup

	// brReads/brAcks accumulate one batch frame's reply elements for
	// delivery through ReplyBatch (deliver). Only the recv
	// goroutine touches them, and the sink must not retain them past the
	// ReplyBatch call, so they recycle frame to frame with no lock.
	brReads []msg.ReadReply
	brAcks  []msg.WriteAck

	mu   sync.Mutex
	conn net.Conn
	// gen is the connection generation; a reader only kills (and reports)
	// its own connection, so a re-dialed successor is never collateral
	// damage of a stale reader's death.
	gen        int
	redialWait time.Duration
	nextDial   time.Time
	closed     bool
}

// fail reports a per-server error under the connection's current server
// index, unless the connection has been detached from the view (a leaver's
// death throes are not news).
func (nc *netConn) fail(err error) {
	if !nc.detached.Load() {
		nc.t.emit(int(nc.server.Load()), err)
	}
}

// indexForEpoch resolves the server index to label a reply issued under
// epoch e with. Epoch 0 (static mode, or a peer speaking the pre-membership
// encoding) and a connection that predates any view adoption use the current
// index — the only numbering there is. ok=false means the epoch is outside
// the retained window (or from a view this transport never adopted): the
// reply's position label would be a guess, so the caller drops it and the
// operation's deadline machinery takes over.
func (nc *netConn) indexForEpoch(e quorum.Epoch) (int, bool) {
	if e == 0 {
		return int(nc.server.Load()), true
	}
	h := nc.epochIdx.Load()
	if h == nil {
		return int(nc.server.Load()), true
	}
	idx, ok := (*h)[e]
	if !ok {
		return 0, false
	}
	return int(idx), true
}

// errSendQueueFull is Send's error for a connection whose writer has fallen a
// whole queue behind: the peer is not draining, and the request was not
// handed off.
var errSendQueueFull = errors.New("tcp: send queue full")

// enqueue queues one request for the writer goroutine. A full queue refuses
// the request instead of blocking the pipeline.
func (nc *netConn) enqueue(req any) error {
	nc.qmu.Lock()
	if nc.qclosed {
		nc.qmu.Unlock()
		return ErrClientClosed
	}
	n := len(nc.queue)
	if n+nc.held >= pipeOutBuffer {
		nc.qmu.Unlock()
		nc.sendDropped()
		return fmt.Errorf("send %s: %w", nc.addr, errSendQueueFull)
	}
	nc.queue = append(nc.queue, req)
	nc.qmu.Unlock()
	if n == 0 {
		select {
		case nc.notify <- struct{}{}:
		default:
		}
	}
	return nil
}

func (nc *netConn) sendDropped() {
	if nc.t.counters != nil {
		nc.t.counters.SendDrops.Inc()
	}
}

// clientCoalesceBytes caps how many pre-encoded frames the write loop
// accumulates before forcing a syscall. It stays under the encode-buffer
// pool's recycling cap so burst buffers return to the pool.
const clientCoalesceBytes = 256 << 10

// startWriter starts the connection's writer goroutine.
func (nc *netConn) startWriter() {
	nc.wg.Add(1)
	go nc.writeLoop()
}

// writeLoop is the connection's writer: each wake swaps the whole pending
// queue out — the requests accumulate in one slice while the writer encodes
// and writes the other — and puts it on the wire. Frames are encoded outside
// every lock into a pooled buffer owned by this goroutine.
func (nc *netConn) writeLoop() {
	defer nc.wg.Done()
	buf := msg.GetEncodeBuf()
	defer msg.PutEncodeBuf(buf)
	var spare []any
	for {
		select {
		case <-nc.stop:
			return
		case <-nc.notify:
		}
		nc.qmu.Lock()
		pend := nc.queue
		nc.queue = spare
		nc.held = len(pend)
		nc.qmu.Unlock()
		if nc.t.counters != nil {
			nc.t.counters.SendQueueMax.Set(int64(len(pend)))
		}
		nc.writeBurst(buf, pend)
		clear(pend)
		spare = pend[:0]
	}
}

// writeBurst encodes pend into batch frames and writes them. defaultMaxBatch
// caps elements per frame — the receiver's decode/fairness unit — not frames
// per write, so a deep burst costs one conn.Write per clientCoalesceBytes of
// frames instead of one per frame.
func (nc *netConn) writeBurst(buf *[]byte, pend []any) {
	out := (*buf)[:0]
	inOut := 0 // requests encoded into out
	for len(pend) > 0 {
		batch := pend[:min(len(pend), defaultMaxBatch)]
		pend = pend[len(batch):]
		next, err := msg.AppendMessage(out, msg.Batch{Msgs: batch})
		if err != nil {
			// Unencodable payload: drop the connection so the failure is
			// visible, not a silent stall. The frames encoded so far go with
			// it; the rest of the burst rides the re-dialed connection.
			nc.mu.Lock()
			if !nc.closed {
				nc.dropLocked(err)
			}
			nc.mu.Unlock()
			nc.release(inOut + len(batch))
			out, inOut = out[:0], 0
			continue
		}
		out = next
		inOut += len(batch)
		if nc.t.hist != nil {
			nc.t.hist.Observe(len(batch))
		}
		if len(out) >= clientCoalesceBytes {
			nc.writeFrames(out)
			nc.release(inOut)
			out, inOut = out[:0], 0
		}
	}
	*buf = out[:0] // capture pool-buffer growth across bursts
	nc.writeFrames(out)
	nc.release(inOut)
}

// release takes n written (or lost) requests off the writer's share of the
// send-queue bound: one lock round per conn.Write.
func (nc *netConn) release(n int) {
	if n == 0 {
		return
	}
	nc.qmu.Lock()
	nc.held -= n
	nc.qmu.Unlock()
}

// writeFrames writes pre-encoded frames in one syscall, transparently
// re-dialing a dead connection first. A failure — the dial was refused or is
// backed off, the write errored — loses the whole burst, and is reported as
// one per-server error so the operations in it are topped up at once.
func (nc *netConn) writeFrames(out []byte) {
	if len(out) == 0 {
		return
	}
	if err := nc.writeFramesLocked(out); err != nil {
		nc.sendDropped()
		nc.fail(fmt.Errorf("send: %w", err))
	}
}

func (nc *netConn) writeFramesLocked(out []byte) error {
	nc.mu.Lock()
	defer nc.mu.Unlock()
	if nc.closed {
		return nil
	}
	if err := nc.ensureLocked(); err != nil {
		return err
	}
	if nc.t.timeout > 0 {
		_ = nc.conn.SetWriteDeadline(time.Now().Add(nc.t.timeout))
	}
	_, err := nc.conn.Write(out)
	if err != nil {
		nc.dropLocked(err)
	}
	return err
}

// ensureLocked re-dials a dead connection, honouring the re-dial backoff,
// and spawns the reader for the new connection. Callers hold mu.
func (nc *netConn) ensureLocked() error {
	if nc.conn != nil {
		return nil
	}
	if now := time.Now(); now.Before(nc.nextDial) {
		return fmt.Errorf("reconnect %s: backed off for %v", nc.addr,
			nc.nextDial.Sub(now).Round(time.Millisecond))
	}
	d := net.Dialer{Timeout: nc.t.timeout}
	conn, err := d.Dial("tcp", nc.addr)
	if err != nil {
		if nc.redialWait == 0 {
			nc.redialWait = redialBackoffMin
		} else {
			nc.redialWait *= 2
			if nc.redialWait > redialBackoffMax {
				nc.redialWait = redialBackoffMax
			}
		}
		nc.nextDial = time.Now().Add(nc.redialWait)
		return fmt.Errorf("reconnect %s: %w", nc.addr, err)
	}
	nc.conn = conn
	nc.gen++
	nc.redialWait = 0
	nc.nextDial = time.Time{}
	if nc.gen > 1 && nc.t.counters != nil {
		nc.t.counters.Reconnects.Inc()
	}
	nc.wg.Add(1)
	go nc.readLoop(conn, nc.gen)
	return nil
}

// dropLocked discards the current connection after an error: a write or
// read error means the connection is genuinely broken. A write that hit its
// deadline counts as a timeout. Callers hold mu.
func (nc *netConn) dropLocked(err error) {
	if nc.conn != nil {
		_ = nc.conn.Close()
		nc.conn = nil
	}
	var nerr net.Error
	if nc.t.counters != nil && errors.As(err, &nerr) && nerr.Timeout() {
		nc.t.counters.Timeouts.Inc()
	}
}

// readLoop delivers every frame arriving on one connection, but only while
// this reader is current: a stale generation's death is not news. Each
// frame's payload is walked in place straight into the bound ReplySink with
// concrete types (deliver) — the client-side mirror of the server's walk. No
// read deadline is ever armed (a silent server is for the pipeline's
// per-operation deadline to notice), so any read error, such as a connection
// closed by a crashed server or a corrupt frame, kills the connection and
// surfaces as one per-server error delivery.
func (nc *netConn) readLoop(conn net.Conn, gen int) {
	defer nc.wg.Done()
	fr := msg.NewFrameReader(conn)
	for {
		payload, err := fr.NextRaw()
		if err == nil {
			err = nc.deliver(payload)
		}
		if err != nil {
			nc.mu.Lock()
			stale := nc.gen != gen || nc.closed
			if !stale && nc.conn == conn {
				nc.dropLocked(err)
			}
			nc.mu.Unlock()
			_ = conn.Close()
			if !stale {
				nc.fail(fmt.Errorf("recv: %w", err))
			}
			return
		}
	}
}

// errForeignFrame is the read error for a lone frame that is no reply: it
// closes the connection, as a malformed frame does.
var errForeignFrame = errors.New("tcp: frame is not a reply")

// deliver walks one frame — a batch frame, the kind a server's serve loop
// coalesces replies into, or a lone reply — and hands its replies to the
// bound ReplySink in whole-frame calls: one ReplyBatch per run of elements
// that resolve to the same server index, so the sink amortizes its internal
// locking across everything the server coalesced into the frame. A reply is
// labeled with the position its server held under the epoch the reply's
// request was issued under (indexForEpoch); one whose epoch is outside the
// retained window is dropped. In steady state a frame is a single run (all
// elements echo the same epoch); only a frame straddling a view change
// splits. Stale-epoch rejects flush the pending run first and are then
// delivered on their own: the sink's view adoption must not be reordered
// ahead of replies already decoded. The accumulator slices live on the
// netConn because only the recv goroutine decodes frames; ReplyBatch's
// contract says the sink must not retain them. A connection detached from
// the view delivers nothing: a leaver's late replies are not news. A
// malformed frame, or a lone frame that is no reply, is an error.
func (nc *netConn) deliver(payload []byte) error {
	if nc.detached.Load() {
		return nil
	}
	rsp := nc.t.rsink.Load()
	if rsp == nil {
		return nil
	}
	rs := *rsp
	idx := -1 // server index of the run being accumulated
	flush := func() {
		if len(nc.brReads)+len(nc.brAcks) == 0 {
			return
		}
		if nc.t.countMsgs {
			nc.t.counters.MsgsRecv.Add(int64(len(nc.brReads) + len(nc.brAcks)))
		}
		rs.ReplyBatch(idx, nc.brReads, nc.brAcks)
		clear(nc.brReads)
		clear(nc.brAcks)
		nc.brReads = nc.brReads[:0]
		nc.brAcks = nc.brAcks[:0]
	}
	vis := msg.BatchVisitor{
		ReadReply: func(m msg.ReadReply) bool {
			if i, ok := nc.indexForEpoch(m.Epoch); ok {
				if i != idx {
					flush()
					idx = i
				}
				nc.brReads = append(nc.brReads, m)
			}
			return true
		},
		WriteAck: func(m msg.WriteAck) bool {
			if i, ok := nc.indexForEpoch(m.Epoch); ok {
				if i != idx {
					flush()
					idx = i
				}
				nc.brAcks = append(nc.brAcks, m)
			}
			return true
		},
		StaleEpoch: func(m msg.StaleEpoch) bool {
			if i, ok := nc.indexForEpoch(m.Epoch); ok {
				flush()
				if nc.t.countMsgs {
					nc.t.counters.MsgsRecv.Inc()
				}
				rs.StaleEpoch(i, m)
			}
			return true
		},
		// Request-kind elements are foreign on a client-bound stream;
		// nil callbacks drop them like any junk element.
	}
	var err error
	if msg.IsBatchPayload(payload) {
		_, err = msg.VisitBatchPayload(payload, vis)
	} else if handled, _ := msg.VisitPayload(payload, vis); !handled {
		err = errForeignFrame
	}
	flush()
	return err
}

func (nc *netConn) close() {
	nc.mu.Lock()
	if nc.closed {
		nc.mu.Unlock()
		nc.wg.Wait()
		return
	}
	nc.closed = true
	close(nc.stop)
	if nc.conn != nil {
		_ = nc.conn.Close()
		nc.conn = nil
	}
	nc.mu.Unlock()
	// Nothing will write the queued requests now; holding them would keep
	// their operations reachable from a closed client.
	nc.qmu.Lock()
	nc.qclosed = true
	nc.queue = nil
	nc.qmu.Unlock()
	nc.wg.Wait()
}
