package tcp

import (
	"probquorum/internal/metrics"
	"probquorum/internal/msg"
	"probquorum/internal/obs"
	"probquorum/internal/quorum"
	"probquorum/internal/register"
	"probquorum/internal/transport"
)

// DefaultKeyspaceShards is the client-side shard count DialKeyspace uses
// when the caller passes shards <= 0: enough stripes that eight client
// goroutines on distinct keys rarely collide, cheap enough to be the
// unconditional default.
const DefaultKeyspaceShards = 16

// KeyspaceClient is a sharded multi-register client over TCP: a
// register.Keyspace (one pipeline per client-side shard, reply routing by
// op-id residue) bound to a single batching tcpTransport, so requests from
// every shard coalesce into the same per-server frames — multi-key batching
// falls out of the shared send queues. See register.Keyspace for the
// sharding and ordering contract.
//
// KeyspaceClient is safe for concurrent use by any number of goroutines;
// goroutines working distinct keys on distinct shards contend on no client
// lock at all.
type KeyspaceClient struct {
	ks       *register.Keyspace
	tr       *tcpTransport
	counters *metrics.TransportCounters
}

// DialKeyspace connects to every replica server address and returns a
// sharded keyspace client with the given client-side shard count (rounded
// up to a power of two; <= 0 selects DefaultKeyspaceShards). Dial's options
// apply.
func DialKeyspace(addrs []string, sys quorum.System, shards int, opts ...ClientOption) (*KeyspaceClient, error) {
	if shards <= 0 {
		shards = DefaultKeyspaceShards
	}
	for shards&(shards-1) != 0 {
		shards++
	}
	d, err := dial(addrs, sys, opts, "keyspace", shards)
	if err != nil {
		return nil, err
	}
	c := &KeyspaceClient{tr: d.tr, counters: d.Counters}
	c.ks = register.NewKeyspaceOver(d.engines, d.rt, register.ApplyPipeline(d.Settings)...)
	return c, nil
}

// Read performs one pipelined read of key, blocking until it completes.
func (c *KeyspaceClient) Read(key msg.RegisterID) (msg.Tagged, error) {
	return c.ks.Read(key)
}

// ReadAtomic performs one pipelined ABD atomic read of key.
func (c *KeyspaceClient) ReadAtomic(key msg.RegisterID) (msg.Tagged, error) {
	return c.ks.ReadAtomic(key)
}

// Write performs one pipelined write of key, blocking until acknowledged.
func (c *KeyspaceClient) Write(key msg.RegisterID, val msg.Value) error {
	_, err := c.WriteAsyncFunc(key, val, nil).Wait()
	return err
}

// ReadAsync submits a read of key and returns immediately.
func (c *KeyspaceClient) ReadAsync(key msg.RegisterID) *register.PendingOp {
	return c.ks.ReadAsync(key)
}

// ReadAtomicAsync submits an ABD atomic read of key and returns immediately.
func (c *KeyspaceClient) ReadAtomicAsync(key msg.RegisterID) *register.PendingOp {
	return c.ks.ReadAtomicAsync(key)
}

// WriteAsync submits a write of key and returns immediately.
func (c *KeyspaceClient) WriteAsync(key msg.RegisterID, val msg.Value) *register.PendingOp {
	return c.WriteAsyncFunc(key, val, nil)
}

// ReadAsyncFunc submits a read of key whose completion invokes fn — the
// open-loop driver seam (internal/loadgen.Target).
func (c *KeyspaceClient) ReadAsyncFunc(key msg.RegisterID, fn func(msg.Tagged, error)) *register.PendingOp {
	return c.ks.ReadAsyncFunc(key, fn)
}

// ReadAtomicAsyncFunc submits an ABD atomic read of key whose completion
// invokes fn.
func (c *KeyspaceClient) ReadAtomicAsyncFunc(key msg.RegisterID, fn func(msg.Tagged, error)) *register.PendingOp {
	return c.ks.ReadAtomicAsyncFunc(key, fn)
}

// WriteAsyncFunc submits a write of key whose completion invokes fn.
func (c *KeyspaceClient) WriteAsyncFunc(key msg.RegisterID, val msg.Value, fn func(msg.Tagged, error)) *register.PendingOp {
	if err := checkValue(val); err != nil {
		return rejectWrite(key, err, fn)
	}
	return c.ks.WriteAsyncFunc(key, val, fn)
}

// Keyspace exposes the underlying sharded keyspace (per-shard pipelines,
// aggregate retries, cache-hit and fast-read counters).
func (c *KeyspaceClient) Keyspace() *register.Keyspace { return c.ks }

// Counters exposes the client's transport fault counters.
func (c *KeyspaceClient) Counters() *metrics.TransportCounters { return c.counters }

// Health returns, per server index, whether this client currently suspects
// the server, since when, and the last failure it attributed to it. Every
// shard shares the one table.
func (c *KeyspaceClient) Health() []transport.ServerHealth { return c.ks.Health() }

// RegisterHealth attaches one health probe per server to reg, named
// "<name>.<index>"; see PipelinedClient.RegisterHealth.
func (c *KeyspaceClient) RegisterHealth(reg *obs.Registry, name string) {
	registerHealth(reg, name, c.tr, c.ks.Health)
}

// Close tears down every connection and fails all pending operations with
// ErrClientClosed.
func (c *KeyspaceClient) Close() {
	_ = c.tr.Close()
	c.ks.Close(ErrClientClosed)
}
