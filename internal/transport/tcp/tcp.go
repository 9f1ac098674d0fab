// Package tcp runs the register protocol over real TCP sockets using only
// the standard library. It exists to demonstrate that the protocol cores are
// transport-independent: the same replica stores and client pipeline that
// run under the simulator serve here behind network sockets.
//
// Frames use the hand-rolled length-prefixed binary codec
// (internal/msg/wire.go, see the DESIGN.md "Wire format" section) — the one
// encoding both sides speak, with no negotiation.
//
// Each connection set (Set; Dial and DialKeyspace dial one per client) holds
// one persistent connection per replica server, and every operation travels
// the same route: requests are coalesced into batch frames by each
// connection's writer goroutine, the server's serve loop — one goroutine per
// connection — applies them and writes the replies to every frame of one
// read as one batch frame, and the client's reader walks each batch frame
// straight into the register pipeline (transport.ReplySink). There is one
// client type: Dial builds it over one pipeline, DialKeyspace over sharded
// ones and DialSet as several engines on one connection set, and a caller
// keeps one operation in flight with
// blocking calls or many with asynchronous ones. A quorum operation fans out
// across the quorum's connections, so it costs one round-trip; replies are
// matched to operations by operation id, so a connection carries any number
// of interleaved exchanges.
//
// # Fault model
//
// Replica servers may crash (Store.Crash) and later recover; connections
// may break. Every client survives both through the register pipeline's
// mechanisms:
//
//   - Deadlines: every operation attempt carries a deadline (WithOpTimeout,
//     2s by default), so a silent peer costs at most that instead of
//     wedging the client forever. A reply that arrives after its attempt was
//     abandoned is dropped by operation id; the connection stays.
//   - Fault-aware fan-out (majority and k-of-n systems): a member the
//     transport reports lost — its connection died, a burst could not be
//     written to it — is replaced within the attempt, which keeps its replies
//     and costs one extra round trip; a silent member is replaced at the
//     deadline. Lost servers are suspected and picked around until a probe
//     sees them answer (Client documents it; DESIGN.md "Fault-aware fan-out"
//     argues it).
//   - Retry with a fresh quorum: an attempt whose deadline passes with a
//     member it cannot replace re-picks a new random quorum from the engine
//     — the paper's availability mechanism (Section 4): a probabilistic
//     quorum client depends on no particular quorum, so it simply draws
//     another. Attempts are bounded by WithRetries; exhaustion surfaces
//     register.ErrQuorumUnavailable.
//   - Reconnect: a connection that errored is marked dead and transparently
//     re-dialed (with its own capped backoff) on next use, so a recovered
//     replica rejoins without restarting the client.
package tcp

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"probquorum/internal/metrics"
	"probquorum/internal/msg"
	"probquorum/internal/obs"
	"probquorum/internal/register"
	"probquorum/internal/replica"
	"probquorum/internal/trace"
)

// Server serves one replica store over a listener.
type Server struct {
	store *replica.Store
	ln    net.Listener
	opts  serverOpts

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

type serverOpts struct {
	metrics *metrics.ServerMetrics
}

// ServerOption configures a Server.
type ServerOption func(*serverOpts)

// WithServerMetrics attaches reply-path instruments to every connection the
// server accepts: replies per conn.Write and the largest such burst. The
// default is no instrumentation.
func WithServerMetrics(m *metrics.ServerMetrics) ServerOption {
	return func(o *serverOpts) { o.metrics = m }
}

// Serve starts serving store on ln. It returns immediately; use Close to
// stop. The caller owns neither ln nor the spawned goroutines afterwards.
func Serve(store *replica.Store, ln net.Listener, opts ...ServerOption) *Server {
	s := &Server{store: store, ln: ln, conns: make(map[net.Conn]struct{})}
	for _, o := range opts {
		o(&s.opts)
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// Listen is a convenience combining net.Listen("tcp", addr) and Serve.
// Use addr "127.0.0.1:0" to let the kernel pick a port (see Addr).
func Listen(store *replica.Store, addr string, opts ...ServerOption) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("tcp listen %s: %w", addr, err)
	}
	return Serve(store, ln, opts...), nil
}

// Addr returns the server's listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Store returns the served replica store (tests inject crashes through it).
func (s *Server) Store() *replica.Store { return s.store }

// Health samples the server's current state for an obs registry's /healthz
// endpoint: live (the store is not crashed), the number of attached client
// connections, and the store's cumulative request counts.
func (s *Server) Health() obs.Health {
	s.mu.Lock()
	sessions := len(s.conns)
	s.mu.Unlock()
	reads, writes := s.store.Stats()
	h := obs.Health{
		Live:     !s.store.Crashed(),
		Sessions: sessions,
		Reads:    reads,
		Writes:   writes,
		Addr:     s.Addr(),
	}
	if v, ok := s.store.View(); ok {
		h.Epoch = uint64(v.Epoch)
		h.View = v.N()
	}
	return h
}

// RegisterHealth attaches the server's health probe to reg under name, so
// /healthz reports this server's liveness and session count.
func (s *Server) RegisterHealth(reg *obs.Registry, name string) {
	reg.RegisterHealth(name, s.Health)
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// replyQueueLimit bounds the bytes of replies one connection holds unsent:
// the serve loop writes them out as soon as they pass it, even in the middle
// of a request frame, so a burst of large values holds at most one reply
// more than this.
const replyQueueLimit = 1 << 20

// serveConn serves one connection on one goroutine: length-prefixed frames
// in, coalesced reply frames out. Every reply is appended to one open
// msg.Batch frame in the connection's pooled buffer, and the loop writes the
// pending replies in one conn.Write before it reads again — when the read
// window holds no further complete frame (FrameReader.Ready), or as soon as
// they pass replyQueueLimit. So the replies to every request frame that
// arrived in one read share one write syscall, and a reply leaves at the
// moment the loop would otherwise wait on the socket, with no hand-off to
// another goroutine. A peer that stops reading stalls only its own
// connection: the loop parks in Write (TCP backpressure) holding at most
// replyQueueLimit plus one reply, and Server.Close closes the socket under
// it. Requests — batched or lone — are decoded through the concrete visitor,
// so the steady-state loop is allocation-free in both directions; a snapshot
// request is answered with a lone SnapReply frame.
//
// Inside a batch frame a malformed or foreign element is dropped rather than
// fatal: replies are matched by operation id, not position, so skipping junk
// cannot desynchronize the stream — the junk element's "operation" simply
// never completes and the sender's per-operation deadline deals with it. A
// malformed batch envelope, or a lone frame the visitor does not handle,
// closes the connection. So does a crashed store: a client whose request
// vanished would wait out its whole deadline, while a closed connection
// surfaces promptly as an error on the client's pending call — its crash
// signal — and the client re-dials on next use.
func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	out := replies{conn: conn, m: s.opts.metrics, buf: msg.GetEncodeBuf()}
	out.w.Reset((*out.buf)[:0])
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		_ = conn.Close()
		out.release()
	}()
	fr := msg.NewFrameReader(conn)
	vis := msg.BatchVisitor{
		ReadReq: func(m msg.ReadReq) bool {
			if rej, stale := s.store.StaleFor(m.Reg, m.Op, m.Epoch); stale {
				out.w.AddStaleEpoch(rej)
				return out.bound()
			}
			// A crashed store (closing the connection is the client's crash
			// signal) or a value the codec cannot carry ends the connection.
			if ok, err := s.store.AppendRead(&out.w, m); !ok || err != nil {
				return false
			}
			return out.bound()
		},
		WriteReq: func(m msg.WriteReq) bool {
			if rej, stale := s.store.StaleFor(m.Reg, m.Op, m.Epoch); stale {
				out.w.AddStaleEpoch(rej)
				return out.bound()
			}
			ack, ok := s.store.ApplyWrite(m)
			if !ok {
				return false // crashed
			}
			out.w.AddWriteAck(ack)
			return out.bound()
		},
		SnapReq: func(m msg.SnapReq) bool {
			reply, ok := s.store.ApplySnap(m)
			return ok && out.writeSnap(reply)
		},
		// Reply-kind elements are foreign on a server-bound stream; leaving
		// their callbacks nil drops them, like any other junk.
	}
	for {
		if !fr.Ready() && !out.flush() {
			return
		}
		payload, err := fr.NextRaw()
		if err != nil {
			return // connection closed or corrupt; drop it
		}
		if msg.IsBatchPayload(payload) {
			if completed, err := msg.VisitBatchPayload(payload, vis); err != nil || !completed {
				return
			}
			continue
		}
		if handled, cont := msg.VisitPayload(payload, vis); !handled || !cont {
			return
		}
	}
}

// replies is the write half of one server connection, owned by its serve
// loop: the open batch of pending replies, in a pooled buffer.
type replies struct {
	conn net.Conn
	m    *metrics.ServerMetrics
	buf  *[]byte
	w    msg.BatchWriter
}

// bound writes the pending replies once they pass replyQueueLimit. The
// replies to one request frame may then span two reply frames, which is
// harmless: replies are matched by operation id. It reports whether the
// connection is still usable.
func (r *replies) bound() bool {
	return r.w.Len() <= replyQueueLimit || r.flush()
}

// flush writes the open batch, if it holds a reply.
func (r *replies) flush() bool {
	if r.w.Count() == 0 {
		return true
	}
	return r.write(r.w.Finish(), r.w.Count())
}

// writeSnap writes the pending replies and then reply, encoded as a
// standalone frame (a joining server reads the snapshot as a lone frame, so
// it is never folded into a batch), in one conn.Write — the cold path.
func (r *replies) writeSnap(reply msg.SnapReply) bool {
	n := r.w.Count()
	out := r.w.Finish()
	if n == 0 {
		out = out[:len(out)-r.w.Len()] // drop the open batch's empty header
	}
	out, err := msg.AppendMessage(out, reply)
	if err != nil {
		return false
	}
	return r.write(out, n+1)
}

// write sends out, which carries n replies, in one conn.Write and opens the
// next batch in the same buffer.
func (r *replies) write(out []byte, n int) bool {
	if r.m != nil {
		r.m.ReplyBatch.Observe(n)
		r.m.QueueDepth.Set(int64(n))
	}
	_, err := r.conn.Write(out)
	r.w.Reset(out[:0])
	return err == nil
}

// release returns the buffer, grown as the traffic needed, to the pool.
func (r *replies) release() {
	*r.buf = r.w.Finish()[:0]
	msg.PutEncodeBuf(r.buf)
}

// Close stops accepting, closes all connections, and waits for the serving
// goroutines to exit.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	_ = s.ln.Close()
	for c := range s.conns {
		_ = c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// Re-dial pacing: a dead connection is re-dialed on next use, but failed
// dials back off exponentially between these bounds so a long-gone server
// is not hammered with connection attempts.
const (
	redialBackoffMin = 5 * time.Millisecond
	redialBackoffMax = time.Second
)

// ErrClientClosed is returned by operations pending in a client when it is
// closed.
var ErrClientClosed = errors.New("tcp: client closed")

// defaultOpTimeout is the per-operation deadline every client runs with when
// the caller sets none. A multiplexed stream turns a closed connection into
// a per-server error but a silent server into nothing at all, so a TCP
// client always keeps a deadline.
const defaultOpTimeout = 2 * time.Second

// defaultMaxBatch bounds how many queued requests one frame coalesces.
const defaultMaxBatch = 16

// pipeOutBuffer is each server connection's send-queue capacity. Overflow
// refuses the request — Send fails, and the operation replaces that member —
// so a stalled connection can never block the pipeline.
const pipeOutBuffer = 4096

// ClientOption configures a TCP client.
type ClientOption func(*clientOpts)

// clientOpts is the shared register.Settings — the one client configuration,
// which register alone reads — plus the knobs only the TCP transport has.
// Every With* option sets one field.
type clientOpts struct {
	register.Settings

	writer    int32
	seed      uint64
	batchHist *metrics.IntHistogram
}

// WithMonotone enables the monotone register variant.
func WithMonotone() ClientOption {
	return func(o *clientOpts) { o.Monotone = true }
}

// WithReadRepair makes the client push the freshest value it reads back to
// the quorum members that replied with older timestamps (write-back).
func WithReadRepair() ClientOption {
	return func(o *clientOpts) { o.ReadRepair = true }
}

// WithMasking enables b-masking reads: only values vouched for identically
// by more than b quorum members are accepted, defeating up to b Byzantine
// servers per quorum; reads without enough votes retry with a fresh quorum.
func WithMasking(b int) ClientOption {
	return func(o *clientOpts) { o.Masking = b }
}

// WithWriter sets the client's writer identity (default 0); distinct
// concurrent writers to the same register must use distinct identities.
func WithWriter(id int32) ClientOption {
	return func(o *clientOpts) { o.writer = id }
}

// WithSeed seeds quorum selection (default 1).
func WithSeed(seed uint64) ClientOption {
	return func(o *clientOpts) { o.seed = seed }
}

// WithOpTimeout bounds every operation attempt by d (default 2s, also when
// d <= 0): an attempt not complete by then has its silent members replaced,
// or is retried on a freshly picked quorum.
func WithOpTimeout(d time.Duration) ClientOption {
	return func(o *clientOpts) { o.OpTimeout = d }
}

// WithRetries caps the attempts per operation; an operation that exhausts
// the budget returns register.ErrQuorumUnavailable. Zero (the default) means
// unlimited retries.
func WithRetries(n int) ClientOption {
	return func(o *clientOpts) { o.Retries = n }
}

// WithTransportCounters makes the connection set record its retries,
// timeouts, and reconnects into tc, which may be shared across sets to
// aggregate a deployment's fault activity.
func WithTransportCounters(tc *metrics.TransportCounters) ClientOption {
	return func(o *clientOpts) { o.Counters = tc }
}

// WithObserver records phase-level operation timings (pick, fan-out,
// quorum-wait, write-back, end-to-end) into obs; register the observer into
// an obs.Registry to watch the quantiles live.
func WithObserver(obs *register.Observer) ClientOption {
	return func(o *clientOpts) { o.Observer = obs }
}

// WithTally counts every quorum access per server into t, the paper's
// per-server load measurement, live instead of post-mortem.
func WithTally(t *metrics.AccessTally) ClientOption {
	return func(o *clientOpts) { o.Tally = t }
}

// WithBatchHistogram records the size of every flushed batch frame into h.
func WithBatchHistogram(h *metrics.IntHistogram) ClientOption {
	return func(o *clientOpts) { o.batchHist = h }
}

// WithInFlightGauge tracks the client's submitted-but-incomplete operation
// count (and its high-watermark) in g.
func WithInFlightGauge(g *metrics.Gauge) ClientOption {
	return func(o *clientOpts) { o.Gauge = g }
}

// WithTrace records the client's completed operations into log, under the
// client's writer id as the process identity. All clients of one process
// share a logical clock, so one log can absorb several clients' records
// consistently.
func WithTrace(log *trace.Log) ClientOption {
	return func(o *clientOpts) { o.Trace = log }
}
