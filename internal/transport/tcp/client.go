package tcp

import (
	"fmt"

	"probquorum/internal/metrics"
	"probquorum/internal/msg"
	"probquorum/internal/obs"
	"probquorum/internal/quorum"
	"probquorum/internal/register"
	"probquorum/internal/rng"
)

// DefaultKeyspaceShards is the client-side shard count DialKeyspace uses
// when the caller passes shards <= 0: enough stripes that eight client
// goroutines on distinct keys rarely collide, cheap enough to be the
// unconditional default.
const DefaultKeyspaceShards = 16

// Client is the register client over TCP: the register.Keyspace it embeds
// (reply routing by op-id residue, one engine per client-side shard) over
// its Set's batching connections, so requests from every shard coalesce
// into the same per-server frames. Every operation and aggregate — Read,
// WriteAsyncFunc, CacheHits, Health, … — is the keyspace's own, the value
// check included; Client adds only what belongs to the sockets: Close (in
// place of the keyspace's Close(err)), Counters and RegisterHealth. Dial
// builds the one-shard case and DialKeyspace the sharded one; see
// register.Keyspace for the sharding and ordering contract.
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
// Client is safe for concurrent use by any number of goroutines; goroutines
// working distinct keys on distinct shards contend on no client lock at all.
type Client struct {
	*register.Keyspace
	set *Set
	own bool // dialed alone: Close closes the set too
}

// KeyspaceClient is Client's former name, kept as an alias for the benchmark
// harness, which names it; it retires with the next benchmark change.
type KeyspaceClient = Client

// Set is one process's connection set: one connection per replica server,
// shared by the engines opened on it. Each engine is a Client of its own
// (writer identity, pick stream, monotone cache, retry budget, op-id
// residue); the set owns the sockets, the reply demultiplexer, the
// suspicion table and the transport counters, so a lost server is suspected
// once and every engine tops up around it.
type Set struct {
	tr      *tcpTransport
	engines []*Client
}

// Dial connects to every replica server address and returns a one-shard
// client: DialKeyspace with one shard. The quorum system's N must match the
// address count.
func Dial(addrs []string, sys quorum.System, opts ...ClientOption) (*Client, error) {
	return DialKeyspace(addrs, sys, 1, opts...)
}

// DialKeyspace connects to every replica server address and returns a client
// with the given client-side shard count (rounded up to a power of two; <= 0
// selects DefaultKeyspaceShards): a Set with that one engine, closed with
// it. The quorum system's N must match the address count. Every client has
// the same defaults: a 2s per-operation deadline (defaultOpTimeout) and
// frames of up to 16 requests (defaultMaxBatch).
func DialKeyspace(addrs []string, sys quorum.System, shards int, opts ...ClientOption) (*Client, error) {
	s, err := DialSet(addrs, sys, shards, [][]ClientOption{nil}, opts...)
	if err != nil {
		return nil, err
	}
	s.engines[0].own = true
	return s.engines[0], nil
}

// DialSet connects to every replica server address once and opens on the
// connections one engine per entry of engines, each with the given shard
// count (as DialKeyspace's) and configured by opts and then engines[i]
// (typically WithWriter and WithSeed). The view and the batch histogram
// belong to the connections, so they come from opts alone: an engine that
// sets one is refused. Defaults apply after each engine's options, so every
// engine keeps a deadline.
func DialSet(addrs []string, sys quorum.System, shards int, engines [][]ClientOption, opts ...ClientOption) (*Set, error) {
	if len(engines) == 0 {
		return nil, fmt.Errorf("tcp: a connection set needs at least one engine")
	}
	if shards <= 0 {
		shards = DefaultKeyspaceShards
	}
	for shards&(shards-1) != 0 {
		shards++
	}
	stride := shards
	for stride < shards*len(engines) {
		stride *= 2
	}
	o := clientOpts{seed: 1}
	for _, opt := range opts {
		opt(&o)
	}
	if err := o.Validate(sys); err != nil {
		return nil, err
	}
	addrs, err := viewAddrs(o.View, addrs)
	if err != nil {
		return nil, err
	}
	if sys.N() != len(addrs) {
		return nil, fmt.Errorf("tcp: quorum system covers %d servers, got %d addresses",
			sys.N(), len(addrs))
	}
	// Message counting costs two contended atomics per message, so the
	// transport only counts messages when the caller asked for counters.
	counted := o.Counters != nil
	if !counted {
		o.Counters = &metrics.TransportCounters{}
	}

	groups := make([][]*register.Engine, len(engines))
	popts := make([][]register.PipelineOption, len(engines))
	for i, eopts := range engines {
		var own clientOpts
		e := o
		for _, opt := range eopts {
			opt(&own)
			opt(&e)
		}
		if own.View != nil || own.batchHist != nil {
			return nil, fmt.Errorf("tcp: engine %d sets a view or batch histogram, which belong to the connection set", i)
		}
		if e.OpTimeout <= 0 {
			e.OpTimeout = defaultOpTimeout
		}
		e.Proc = msg.NodeID(e.writer)
		groups[i] = make([]*register.Engine, shards)
		for j := range groups[i] {
			groups[i][j], err = e.Engine(e.writer, sys, rng.Derive(e.seed, fmt.Sprintf("tcp.client.%d.%d", e.writer, j)),
				register.WithOpStride(uint64(i*shards+j), uint64(stride)))
			if err != nil {
				return nil, err
			}
		}
		popts[i] = []register.PipelineOption{register.ApplyPipeline(e.Settings)}
	}

	if o.OpTimeout <= 0 {
		o.OpTimeout = defaultOpTimeout
	}
	tr := newTCPTransport(addrs, o.OpTimeout, o.Counters, o.batchHist)
	tr.countMsgs = counted
	if o.View != nil {
		tr.epoch = o.View.Epoch
	}
	if err := tr.start(); err != nil {
		return nil, err
	}
	s := &Set{tr: tr}
	for _, ks := range register.NewKeyspacesOver(tr, groups, popts) {
		s.engines = append(s.engines, &Client{Keyspace: ks, set: s})
	}
	return s, nil
}

// Engine returns the set's engine i.
func (s *Set) Engine(i int) *Client { return s.engines[i] }

// Close tears down every connection and fails the pending operations of
// every engine with ErrClientClosed. It is idempotent.
func (s *Set) Close() { _ = s.tr.Close() }

// Counters exposes the client's transport fault counters (its set's).
func (c *Client) Counters() *metrics.TransportCounters { return c.set.tr.counters }

// RegisterHealth attaches one health probe per server to reg, named
// "<name>.<index>", so /healthz shows this client's suspicions next to the
// servers' own liveness (Server.RegisterHealth): live means not suspected.
// The probes cover the servers of the view at the time of the call.
func (c *Client) RegisterHealth(reg *obs.Registry, name string) {
	for i, nc := range *c.set.tr.conns.Load() {
		i, addr := i, nc.addr
		reg.RegisterHealth(fmt.Sprintf("%s.%d", name, i), func() obs.Health {
			h := obs.Health{Live: true, Addr: addr}
			if rows := c.Health(); i < len(rows) {
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

// Close fails all pending operations with ErrClientClosed and, for a client
// dialed alone (Dial, DialKeyspace), tears down its connections; an engine
// of a Set leaves them to the set's other engines. It is idempotent.
func (c *Client) Close() {
	if c.own {
		c.set.Close()
		return
	}
	c.Keyspace.Close(ErrClientClosed)
}
