package cluster

import (
	"fmt"
	"sync"

	"probquorum/internal/msg"
	"probquorum/internal/quorum"
	"probquorum/internal/register"
)

// DefaultKeyspaceShards is the client-side shard count NewKeyspace uses
// when the caller passes shards <= 0.
const DefaultKeyspaceShards = 16

// KeyspaceClient is a sharded multi-register client attached to a cluster:
// a register.Keyspace over the client's inbox pump, one pipeline and engine
// per client-side shard, replies routed to shards by op-id residue. All of
// its methods are safe for concurrent use.
type KeyspaceClient struct {
	id        msg.NodeID
	ks        *register.Keyspace
	tr        *clusterTransport
	closeOnce sync.Once
}

// NewKeyspace registers a sharded keyspace client process using the given
// quorum system and client-side shard count (rounded up to a power of two;
// <= 0 selects DefaultKeyspaceShards). The blocking Client's options apply;
// with crashes in play set WithOpTimeout so stalled operations re-issue on
// fresh quorums.
func (c *Cluster) NewKeyspace(sys quorum.System, shards int, opts ...ClientOption) (*KeyspaceClient, error) {
	if shards <= 0 {
		shards = DefaultKeyspaceShards
	}
	for shards&(shards-1) != 0 {
		shards++
	}
	a, err := c.attach(sys, opts)
	if err != nil {
		return nil, err
	}
	engines := make([]*register.Engine, shards)
	for i := range engines {
		engines[i] = a.engine(sys, fmt.Sprintf("cluster.keyspace.%d.%d", a.id, i),
			register.WithOpStride(uint64(i), uint64(shards)))
	}
	return &KeyspaceClient{
		id: a.id,
		ks: register.NewKeyspaceOver(engines, a.rt, register.ApplyPipeline(a.Settings)...),
		tr: a.tr,
	}, nil
}

// ID returns the client's node identifier.
func (kc *KeyspaceClient) ID() msg.NodeID { return kc.id }

// Keyspace exposes the underlying sharded keyspace (per-shard pipelines,
// aggregate retries, cache-hit and fast-read counters).
func (kc *KeyspaceClient) Keyspace() *register.Keyspace { return kc.ks }

// Read performs one pipelined read of key, blocking until it completes.
func (kc *KeyspaceClient) Read(key msg.RegisterID) (msg.Tagged, error) {
	return kc.ks.Read(key)
}

// ReadAtomic performs one pipelined ABD atomic read of key.
func (kc *KeyspaceClient) ReadAtomic(key msg.RegisterID) (msg.Tagged, error) {
	return kc.ks.ReadAtomic(key)
}

// Write performs one pipelined write of key, blocking until acknowledged.
func (kc *KeyspaceClient) Write(key msg.RegisterID, val msg.Value) error {
	return kc.ks.Write(key, val)
}

// ReadAsync submits a read of key and returns immediately.
func (kc *KeyspaceClient) ReadAsync(key msg.RegisterID) *register.PendingOp {
	return kc.ks.ReadAsync(key)
}

// ReadAtomicAsync submits an ABD atomic read of key and returns immediately.
func (kc *KeyspaceClient) ReadAtomicAsync(key msg.RegisterID) *register.PendingOp {
	return kc.ks.ReadAtomicAsync(key)
}

// WriteAsync submits a write of key and returns immediately.
func (kc *KeyspaceClient) WriteAsync(key msg.RegisterID, val msg.Value) *register.PendingOp {
	return kc.ks.WriteAsync(key, val)
}

// Close detaches the client and fails all pending operations with ErrClosed.
// It is idempotent.
func (kc *KeyspaceClient) Close() {
	kc.closeOnce.Do(func() {
		kc.tr.Close()
		kc.ks.Close(ErrClosed)
	})
}
