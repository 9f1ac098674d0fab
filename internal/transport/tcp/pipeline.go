package tcp

import (
	"errors"
	"fmt"
	"time"

	"probquorum/internal/metrics"
	"probquorum/internal/msg"
	"probquorum/internal/obs"
	"probquorum/internal/quorum"
	"probquorum/internal/register"
	"probquorum/internal/trace"
	"probquorum/internal/transport"
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

// WithMaxBatch caps how many queued requests a client coalesces into one
// frame per server (default 16). 1 disables coalescing while keeping the
// multiplexed in-flight machinery — the ablation point the batching
// benchmarks compare against.
func WithMaxBatch(n int) ClientOption {
	return func(o *clientOpts) { o.maxBatch = n }
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
// share a logical clock by default, so one log can absorb several clients'
// records consistently.
func WithTrace(log *trace.Log) ClientOption {
	return func(o *clientOpts) { o.Trace = log }
}

// WithClock overrides the logical clock used for trace timestamps.
func WithClock(clock func() int64) ClientOption {
	return func(o *clientOpts) { o.Clock = clock }
}

// PipelinedClient is a register client that keeps many operations in flight
// over one TCP connection per replica server: a thin adapter binding a
// transport-agnostic register.Pipeline to a tcpTransport. Outgoing requests
// queued for a server are coalesced into batch frames (one frame carrying
// several requests, amortizing encode and syscall cost), and replies are
// matched to operations by operation id rather than request/reply pairing,
// so the connection carries any number of interleaved exchanges at once.
//
// Ordering guarantees are the Pipeline's: operations on different registers
// proceed concurrently; same-register operations are FIFO per client, which
// preserves the monotone variant's [R4].
//
// The fan-out is fault-aware over majority and k-of-n systems (DESIGN.md,
// "Fault-aware fan-out"). A crashed replica — its connection dies, or a burst
// cannot be written to it — costs the operations in flight to it one extra
// round trip: each replaces that member with a fresh server and keeps the
// replies it has. A silent one costs the operations in flight one
// per-operation deadline, once. Either way the server is then suspected
// (Health, RegisterHealth): picks avoid it, and a shadow request every
// transport.ProbeInterval notices its recovery. Other quorum systems keep
// the plain path — the deadline re-issues the operation on a freshly picked
// quorum. Dead connections re-dial transparently with capped backoff on next
// use.
//
// PipelinedClient is safe for concurrent use by any number of goroutines.
type PipelinedClient struct {
	pl       *register.Pipeline
	engine   *register.Engine
	tr       *tcpTransport
	counters *metrics.TransportCounters
}

// DialPipelined connects to every replica server address and returns a
// pipelined client. The quorum system's N must match the address count, and
// Dial's options apply.
func DialPipelined(addrs []string, sys quorum.System, opts ...ClientOption) (*PipelinedClient, error) {
	d, err := dial(addrs, sys, opts, "pipeclient", 0)
	if err != nil {
		return nil, err
	}
	c := &PipelinedClient{engine: d.engines[0], tr: d.tr, counters: d.Counters}
	c.pl = register.NewPipelineOver(c.engine, d.rt, register.ApplyPipeline(d.Settings)...)
	return c, nil
}

// Read performs one pipelined quorum read, blocking until it completes.
func (c *PipelinedClient) Read(reg msg.RegisterID) (msg.Tagged, error) {
	return c.pl.Read(reg)
}

// ReadAtomic performs one pipelined ABD atomic read, blocking until it
// completes (including the awaited write-back when the quorum's replies
// disagreed).
func (c *PipelinedClient) ReadAtomic(reg msg.RegisterID) (msg.Tagged, error) {
	return c.pl.ReadAtomic(reg)
}

// Write performs one pipelined quorum write, blocking until acknowledged.
func (c *PipelinedClient) Write(reg msg.RegisterID, val msg.Value) error {
	_, err := c.WriteAsync(reg, val).Wait()
	return err
}

// ReadAsync submits a read and returns immediately.
func (c *PipelinedClient) ReadAsync(reg msg.RegisterID) *register.PendingOp {
	return c.pl.ReadAsync(reg)
}

// ReadAtomicAsync submits an ABD atomic read and returns immediately.
func (c *PipelinedClient) ReadAtomicAsync(reg msg.RegisterID) *register.PendingOp {
	return c.pl.ReadAtomicAsync(reg)
}

// WriteAsync submits a write and returns immediately.
func (c *PipelinedClient) WriteAsync(reg msg.RegisterID, val msg.Value) *register.PendingOp {
	if err := checkValue(val); err != nil {
		return rejectWrite(reg, err, nil)
	}
	return c.pl.WriteAsync(reg, val)
}

// Engine exposes the client's register engine (owned by the pipeline; do
// not call its methods while operations are in flight).
func (c *PipelinedClient) Engine() *register.Engine { return c.engine }

// Pipeline exposes the underlying pipeline (for Retries and InFlight).
func (c *PipelinedClient) Pipeline() *register.Pipeline { return c.pl }

// Counters exposes the client's transport fault counters.
func (c *PipelinedClient) Counters() *metrics.TransportCounters { return c.counters }

// Health returns, per server index, whether this client currently suspects
// the server, since when, and the last failure it attributed to it.
func (c *PipelinedClient) Health() []transport.ServerHealth { return c.pl.Health() }

// RegisterHealth attaches one health probe per server to reg, named
// "<name>.<index>", so /healthz shows this client's suspicions next to the
// servers' own liveness (Server.RegisterHealth): live means not suspected.
// The probes cover the servers of the view at the time of the call.
func (c *PipelinedClient) RegisterHealth(reg *obs.Registry, name string) {
	registerHealth(reg, name, c.tr, c.pl.Health)
}

// registerHealth registers the per-server probes of a client whose
// suspicion snapshot is health, over the connections of tr.
func registerHealth(reg *obs.Registry, name string, tr *tcpTransport, health func() []transport.ServerHealth) {
	for i, nc := range *tr.conns.Load() {
		i, addr := i, nc.addr
		reg.RegisterHealth(fmt.Sprintf("%s.%d", name, i), func() obs.Health {
			h := obs.Health{Live: true, Addr: addr}
			if rows := health(); i < len(rows) {
				h.Live = !rows[i].Suspected
				if rows[i].Suspected {
					h.Since = &rows[i].Since
				}
				if rows[i].LastErr != nil {
					h.LastError = rows[i].LastErr.Error()
				}
			}
			return h
		})
	}
}

// Close tears down every connection and fails all pending operations with
// ErrClientClosed.
func (c *PipelinedClient) Close() {
	_ = c.tr.Close()
	c.pl.Close(ErrClientClosed)
}
