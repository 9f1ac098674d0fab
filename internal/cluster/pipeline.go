package cluster

import (
	"fmt"
	"sync"

	"probquorum/internal/metrics"
	"probquorum/internal/msg"
	"probquorum/internal/quorum"
	"probquorum/internal/register"
)

// This file layers the pipelined register client onto the cluster runtime:
// a register.Pipeline fed by a pump goroutine that forwards the client's
// inbox into Pipeline.Deliver. Unlike the blocking Client, a PipeClient
// keeps many operations in flight at once — reads and writes to different
// registers proceed concurrently; same-register operations stay FIFO per
// client, which preserves the monotone variant's [R4].

// WithInFlightGauge tracks the client's submitted-but-incomplete operation
// count (and its high-watermark) in g.
func WithInFlightGauge(g *metrics.Gauge) ClientOption {
	return func(c *clientConfig) { c.Gauge = g }
}

// PipeClient is a pipelined register client attached to a cluster. All of
// its methods are safe for concurrent use.
type PipeClient struct {
	id        msg.NodeID
	pl        *register.Pipeline
	tr        *clusterTransport
	closeOnce sync.Once
}

// NewPipeline registers a pipelined client process using the given quorum
// system. The blocking Client's options apply. With crashes in play, set
// WithOpTimeout so stalled operations re-issue on fresh quorums.
func (c *Cluster) NewPipeline(sys quorum.System, opts ...ClientOption) (*PipeClient, error) {
	a, err := c.attach(sys, opts)
	if err != nil {
		return nil, err
	}
	engine := a.engine(sys, fmt.Sprintf("cluster.pipeclient.%d", a.id))
	return &PipeClient{
		id: a.id,
		pl: register.NewPipelineOver(engine, a.rt, register.ApplyPipeline(a.Settings)...),
		tr: a.tr,
	}, nil
}

// ID returns the client's node identifier.
func (pc *PipeClient) ID() msg.NodeID { return pc.id }

// Engine exposes the client's register engine (tests inspect cache hits).
// It is owned by the pipeline; do not call its methods directly while
// operations are in flight.
func (pc *PipeClient) Engine() *register.Engine { return pc.pl.Engine() }

// Pipeline exposes the underlying pipeline (for Retries and InFlight).
func (pc *PipeClient) Pipeline() *register.Pipeline { return pc.pl }

// Read performs one pipelined read, blocking until it completes.
func (pc *PipeClient) Read(reg msg.RegisterID) (msg.Tagged, error) {
	return pc.pl.Read(reg)
}

// ReadAtomic performs one pipelined ABD atomic read, blocking until it
// completes (including the awaited write-back when the quorum's replies
// disagreed).
func (pc *PipeClient) ReadAtomic(reg msg.RegisterID) (msg.Tagged, error) {
	return pc.pl.ReadAtomic(reg)
}

// Write performs one pipelined write, blocking until acknowledged.
func (pc *PipeClient) Write(reg msg.RegisterID, val msg.Value) error {
	return pc.pl.Write(reg, val)
}

// ReadAsync submits a read and returns immediately.
func (pc *PipeClient) ReadAsync(reg msg.RegisterID) *register.PendingOp {
	return pc.pl.ReadAsync(reg)
}

// ReadAtomicAsync submits an ABD atomic read and returns immediately.
func (pc *PipeClient) ReadAtomicAsync(reg msg.RegisterID) *register.PendingOp {
	return pc.pl.ReadAtomicAsync(reg)
}

// WriteAsync submits a write and returns immediately.
func (pc *PipeClient) WriteAsync(reg msg.RegisterID, val msg.Value) *register.PendingOp {
	return pc.pl.WriteAsync(reg, val)
}

// Close detaches the client and fails all pending operations with ErrClosed.
// It is idempotent.
func (pc *PipeClient) Close() {
	pc.closeOnce.Do(func() {
		pc.tr.Close()
		pc.pl.Close(ErrClosed)
	})
}
