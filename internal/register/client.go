package register

import (
	"probquorum/internal/msg"
	"probquorum/internal/quorum"
	"probquorum/internal/transport"
)

// Client is the blocking register client: a Pipeline over a Transport used
// at depth one. Each call submits one operation and waits for it, so a
// caller issuing from one goroutine keeps the paper's model of one pending
// operation per process, and everything else — deadlines, top-up around lost
// members, retries on fresh quorums, masking, repair, stale-epoch view
// adoption, tracing and the observer — is the Pipeline's, configured by the
// same PipelineOptions. The cluster and TCP clients are thin adapters that
// construct one of these over their respective Transports.
type Client struct {
	p *Pipeline
}

// NewClient builds a blocking register client over tr and binds the
// transport's delivery sink (NewPipelineOver). The caller retains ownership
// of the transport: closing it is the caller's job (adapters do it in their
// Close methods), and after close any blocked operation fails with the
// transport's terminal error.
func NewClient(e *Engine, tr transport.Transport, opts ...PipelineOption) *Client {
	return &Client{p: NewPipelineOver(e, tr, opts...)}
}

// Engine returns the client's register engine.
func (c *Client) Engine() *Engine { return c.p.Engine() }

// AdoptView switches the client to a newer membership view: the engine's
// quorum systems and epoch stamp move to it, and the transport is re-targeted
// when it supports runtime updates. Reconfigurations normally reach a client
// through StaleEpoch rejects mid-operation; this method is for the client
// that initiated the reconfiguration — it already holds the new view and
// should not wait to be rejected. It reports whether the view was adopted
// (false when not newer).
func (c *Client) AdoptView(v quorum.View) bool { return c.p.AdoptView(v) }

// Read performs one read of reg and returns the freshest tagged value the
// quorum answered with (filtered through the monotone cache and the
// b-masking vote count when those are enabled).
func (c *Client) Read(reg msg.RegisterID) (msg.Tagged, error) { return c.p.Read(reg) }

// ReadAtomic performs an ABD-style atomic read. When the quorum's replies
// disagree, the read's result is written back to a fresh quorum and the
// acknowledgments awaited before it is returned; when every reply carries
// the same timestamp the write-back is elided and the read completes in one
// round trip (counted by Observer.FastReads and Engine.FastReads). Over a
// strict quorum system this is the classic construction for atomicity; over
// a probabilistic system the write-back still helps freshness but atomicity
// only holds with high probability.
func (c *Client) ReadAtomic(reg msg.RegisterID) (msg.Tagged, error) { return c.p.ReadAtomic(reg) }

// Write performs one single-writer write of val to reg and returns the tag
// it installed.
func (c *Client) Write(reg msg.RegisterID, val msg.Value) (msg.Tagged, error) {
	return c.p.WriteAsync(reg, val).Wait()
}

// WriteMulti performs a multi-writer write: a read round discovers the
// current maximum timestamp, and the write round installs val one past it,
// tie-broken by writer id. It returns the timestamp written.
func (c *Client) WriteMulti(reg msg.RegisterID, val msg.Value) (msg.Timestamp, error) {
	tag, err := c.p.WriteMultiAsyncFunc(reg, val, nil).Wait()
	return tag.TS, err
}
