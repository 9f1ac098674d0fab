// Package cluster is the concurrent runtime for the register protocol: real
// goroutines exchanging messages over channels, with optional artificial
// delays and server crashes. It deploys exactly the same protocol cores
// (register sessions, replica stores) as the discrete-event simulator, which
// is what makes the spec-level tests meaningful for both.
//
// Topology: n replica-server goroutines, each owning a replica.Store, plus
// any number of client handles. A client performs Read/Write operations,
// blocking or asynchronous; each operation fans a request out to a quorum and
// waits for every member's reply, retrying with a fresh quorum on timeout
// (the paper's failure-free model never needs the retry; crash experiments
// do).
package cluster

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"probquorum/internal/metrics"
	"probquorum/internal/msg"
	"probquorum/internal/quorum"
	"probquorum/internal/register"
	"probquorum/internal/replica"
	"probquorum/internal/rng"
	"probquorum/internal/transport"
)

// ErrClosed is returned by operations on a closed cluster.
var ErrClosed = errors.New("cluster: closed")

type envelope struct {
	from    msg.NodeID
	payload any
}

// Config configures a cluster.
type Config struct {
	// Servers is the number of replica servers n.
	Servers int
	// Initial is the initial contents of every register, copied to every
	// replica.
	Initial map[msg.RegisterID]msg.Value
	// Delay, if non-nil, delays every message by a sample from the
	// distribution. Nil means in-memory-channel latency only.
	Delay rng.Dist
	// Seed seeds the delay sampling.
	Seed uint64
}

// Cluster is a running set of replica servers plus client bookkeeping.
type Cluster struct {
	// servers/appliers/serverCh/serverIDs are parallel slices indexed by
	// global server index; they only ever grow (AddServer), and are guarded
	// by mu because growth races with delivery. serverIDs carries each
	// server's node identity — equal to its index for the initial servers,
	// allocated from the shared client id space for servers added later.
	servers   []*replica.Store
	appliers  []replica.Applier // swapped for fault injection
	serverCh  []chan envelope
	serverIDs []msg.NodeID
	delay     rng.Dist

	mu      sync.Mutex
	delayR  func() time.Duration
	clients map[msg.NodeID]chan envelope
	nextID  msg.NodeID

	seed uint64

	// partition maps node id -> partition group; messages between
	// different groups are dropped. Nil means fully connected. Guarded by
	// mu.
	partition map[msg.NodeID]int

	stop    chan struct{}
	wg      sync.WaitGroup
	closed  atomic.Bool
	msgSent metrics.Counter
}

// New starts the servers and returns the cluster. Callers must Close it.
func New(cfg Config) (*Cluster, error) {
	if cfg.Servers <= 0 {
		return nil, fmt.Errorf("cluster: invalid server count %d", cfg.Servers)
	}
	c := &Cluster{
		seed:    cfg.Seed,
		delay:   cfg.Delay,
		clients: make(map[msg.NodeID]chan envelope),
		nextID:  msg.NodeID(cfg.Servers),
		stop:    make(chan struct{}),
	}
	if cfg.Delay != nil {
		r := rng.Derive(cfg.Seed, "cluster.delay")
		var mu sync.Mutex
		c.delayR = func() time.Duration {
			mu.Lock()
			defer mu.Unlock()
			return cfg.Delay.Sample(r)
		}
	}
	for i := 0; i < cfg.Servers; i++ {
		store := replica.New(msg.NodeID(i), cfg.Initial)
		ch := make(chan envelope, 64)
		c.servers = append(c.servers, store)
		c.appliers = append(c.appliers, store)
		c.serverCh = append(c.serverCh, ch)
		c.serverIDs = append(c.serverIDs, msg.NodeID(i))
		c.wg.Add(1)
		go c.serve(i, msg.NodeID(i), ch)
	}
	return c, nil
}

func (c *Cluster) serve(idx int, id msg.NodeID, ch chan envelope) {
	defer c.wg.Done()
	for {
		select {
		case env := <-ch:
			c.mu.Lock()
			applier := c.appliers[idx]
			c.mu.Unlock()
			if reply, ok := applier.Apply(env.payload); ok {
				c.deliverToClient(env.from, id, reply)
			}
		case <-c.stop:
			return
		}
	}
}

// SetByzantine makes server i exhibit arbitrary failures: fabricated read
// replies with an enormous timestamp, swallowed writes. Clients defend with
// Settings.Masking.
func (c *Cluster) SetByzantine(i int, poison msg.Value) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.appliers[i] = replica.NewByzantine(c.servers[i], poison)
}

// ClearByzantine restores server i to honest behaviour (its state was
// retained by the underlying store).
func (c *Cluster) ClearByzantine(i int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.appliers[i] = c.servers[i]
}

// Messages returns the number of messages sent so far (requests + replies).
func (c *Cluster) Messages() int64 { return c.msgSent.Value() }

// Server returns replica server i for inspection or fault injection.
func (c *Cluster) Server(i int) *replica.Store {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.servers[i]
}

// NumServers returns the number of replica servers (including any added at
// runtime).
func (c *Cluster) NumServers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.servers)
}

// Partition splits the network: groups[i] lists the node ids (servers and
// clients) in group i; messages crossing group boundaries are dropped until
// Heal. Nodes not listed in any group form an implicit final group.
// Operations whose quorums span the cut stall until their timeout and retry
// — exactly the behaviour a client needs to ride out a real partition.
func (c *Cluster) Partition(groups ...[]msg.NodeID) {
	p := make(map[msg.NodeID]int)
	for gi, group := range groups {
		for _, id := range group {
			p[id] = gi
		}
	}
	c.mu.Lock()
	c.partition = p
	c.mu.Unlock()
}

// Heal reconnects all partitions.
func (c *Cluster) Heal() {
	c.mu.Lock()
	c.partition = nil
	c.mu.Unlock()
}

// connected reports whether a message from one node may reach another under
// the current partition.
func (c *Cluster) connected(from, to msg.NodeID) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.partition == nil {
		return true
	}
	gf, okf := c.partition[from]
	gt, okt := c.partition[to]
	if !okf {
		gf = -1
	}
	if !okt {
		gt = -1
	}
	return gf == gt
}

// Close stops all server goroutines and in-flight deliveries and waits for
// them to exit. It is idempotent.
func (c *Cluster) Close() {
	if c.closed.Swap(true) {
		return
	}
	close(c.stop)
	c.wg.Wait()
}

// deliver sends payload to the destination channel after the configured
// delay, without blocking the caller. Deliveries are abandoned when the
// cluster closes.
func (c *Cluster) deliver(ch chan envelope, env envelope) {
	c.msgSent.Inc()
	var d time.Duration
	if c.delayR != nil {
		d = c.delayR()
	}
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		if d > 0 {
			t := time.NewTimer(d)
			defer t.Stop()
			select {
			case <-t.C:
			case <-c.stop:
				return
			}
		}
		select {
		case ch <- env:
		case <-c.stop:
		}
	}()
}

func (c *Cluster) deliverToServer(from msg.NodeID, server int, payload any) {
	c.mu.Lock()
	var ch chan envelope
	var to msg.NodeID
	if server >= 0 && server < len(c.serverCh) {
		ch = c.serverCh[server]
		to = c.serverIDs[server]
	}
	c.mu.Unlock()
	if ch == nil {
		c.msgSent.Inc() // no such server (a view raced its join); the send is spent
		return
	}
	if !c.connected(from, to) {
		c.msgSent.Inc() // the send happened; the network ate it
		return
	}
	c.deliver(ch, envelope{from: from, payload: payload})
}

func (c *Cluster) deliverToClient(client, from msg.NodeID, payload any) {
	if !c.connected(from, client) {
		c.msgSent.Inc()
		return
	}
	c.mu.Lock()
	ch, ok := c.clients[client]
	c.mu.Unlock()
	if !ok {
		return
	}
	c.deliver(ch, envelope{from: from, payload: payload})
}

// clusterTransport adapts one client's slice of the cluster to the
// transport.Transport seam: Send routes through the cluster's delivery
// machinery (delays, partitions, message counting) and a pump goroutine
// drains the client's inbox into the bound sink. The register layer on top
// owns all protocol logic.
type clusterTransport struct {
	c     *Cluster
	id    msg.NodeID
	inbox chan envelope
	done  chan struct{}
	once  sync.Once

	// view, when set, remaps transport server indices (positions in the
	// current membership view) onto the cluster's global server indices; nil
	// means the identity mapping of the static world. vmu orders Update
	// installs; Send and the pump read the pointer lock-free.
	vmu  sync.Mutex
	view atomic.Pointer[clusterViews]
}

// clusterViewMap is one adopted view resolved against the cluster: members
// maps view position -> global server index, rev maps a replying server's
// node id back to its view position.
type clusterViewMap struct {
	epoch   quorum.Epoch
	members []int32
	rev     map[msg.NodeID]int
}

// clusterViews is the transport's adopted-view state: cur resolves sends and
// epoch-less deliveries; hist (which includes cur's own epoch) resolves
// replies by the epoch their request was issued under, so an in-flight reply
// racing a view adoption is attributed to the replier's position in the
// issuing view rather than remapped — wrongly — through the new one.
type clusterViews struct {
	cur  *clusterViewMap
	hist map[quorum.Epoch]*clusterViewMap
}

// clusterEpochHistory bounds how many past epochs reply translation retains;
// see the matching constant in the TCP transport.
const clusterEpochHistory = 4

func (t *clusterTransport) N() int {
	if vs := t.view.Load(); vs != nil {
		return len(vs.cur.members)
	}
	t.c.mu.Lock()
	defer t.c.mu.Unlock()
	return len(t.c.servers)
}

func (t *clusterTransport) Bind(sink transport.Sink) {
	go func() {
		for {
			select {
			case env := <-t.inbox:
				from := int(env.from)
				if vs := t.view.Load(); vs != nil {
					vm := vs.cur
					if e, isReply := transport.ReplyEpoch(env.payload); isReply && e != 0 {
						m, ok := vs.hist[e]
						if !ok {
							// A reply issued under an epoch outside the
							// retained window: its position label would be a
							// guess. Drop it; the operation's deadline
							// machinery re-issues.
							continue
						}
						vm = m
					}
					pos, ok := vm.rev[env.from]
					if !ok {
						// A reply from a server outside the issuing view: a
						// leaver answering an old attempt. Its op id no longer
						// matches anything; drop it here rather than hand the
						// client a server index it cannot place.
						continue
					}
					from = pos
				}
				sink(from, env.payload, nil)
			case <-t.c.stop:
				sink(transport.Broadcast, nil, ErrClosed)
				return
			case <-t.done:
				return
			}
		}
	}()
}

// Send never fails for reachable members: partition drops and crashed
// servers surface as missing replies, which the client's deadline machinery
// handles. Under a view, the server index is the view position; an index
// outside the view (a send racing a shrink) returns transport.ErrNotInView
// so SendAll can record the drop — callers treat it like a missing reply.
func (t *clusterTransport) Send(server int, req any) error {
	if vs := t.view.Load(); vs != nil {
		if server < 0 || server >= len(vs.cur.members) {
			return transport.ErrNotInView
		}
		server = int(vs.cur.members[server])
	}
	t.c.deliverToServer(t.id, server, req)
	return nil
}

// Update re-targets the transport at the view's members: subsequent sends to
// position i reach the view's i-th server, and replies are translated back
// through the view their request was issued under (a bounded history of
// recent epochs). Idempotent and ordered by epoch (transport.Updater).
func (t *clusterTransport) Update(v quorum.View) error {
	if err := v.Validate(); err != nil {
		return err
	}
	t.vmu.Lock()
	defer t.vmu.Unlock()
	prev := t.view.Load()
	if prev != nil && v.Epoch <= prev.cur.epoch {
		return nil
	}
	c := t.c
	c.mu.Lock()
	members := make([]int32, len(v.Members))
	rev := make(map[msg.NodeID]int, len(v.Members))
	for pos, m := range v.Members {
		if int(m) < 0 || int(m) >= len(c.servers) {
			c.mu.Unlock()
			return fmt.Errorf("cluster: view member %d outside cluster of %d servers", m, len(c.servers))
		}
		members[pos] = m
		rev[c.serverIDs[m]] = pos
	}
	c.mu.Unlock()
	vm := &clusterViewMap{epoch: v.Epoch, members: members, rev: rev}
	hist := make(map[quorum.Epoch]*clusterViewMap, clusterEpochHistory+1)
	if prev != nil {
		for e, m := range prev.hist {
			if e+clusterEpochHistory > v.Epoch {
				hist[e] = m
			}
		}
	}
	hist[v.Epoch] = vm
	t.view.Store(&clusterViews{cur: vm, hist: hist})
	return nil
}

func (t *clusterTransport) Close() error {
	t.once.Do(func() {
		t.c.mu.Lock()
		delete(t.c.clients, t.id)
		t.c.mu.Unlock()
		close(t.done)
	})
	return nil
}

// DefaultKeyspaceShards is the client-side shard count NewKeyspace uses
// when the caller passes shards <= 0.
const DefaultKeyspaceShards = 16

// Client is one application process's register client attached to the
// cluster: a register.Keyspace over the process's inbox, one pipeline and
// engine per client-side shard, replies routed to shards by op-id residue.
// NewClient builds the one-shard case — a single pipeline — and NewKeyspace
// the sharded one. A blocking call is an asynchronous one waited on at once.
// All of its methods are safe for concurrent use.
type Client struct {
	id msg.NodeID
	ks *register.Keyspace
	tr *clusterTransport
}

// NewClient registers a new one-shard client process using the given quorum
// system: NewKeyspace with one shard.
func (c *Cluster) NewClient(sys quorum.System, s register.Settings) (*Client, error) {
	return c.NewKeyspace(sys, 1, s)
}

// NewKeyspace registers a client process using the given quorum system,
// client-side shard count (rounded up to a power of two; <= 0 selects
// DefaultKeyspaceShards) and settings. Counters also receive the logical
// message counts: one MsgsSent per request handed to the cluster, one
// MsgsRecv per reply delivered back. With crashes in play set OpTimeout so
// stalled operations re-issue on fresh quorums; with a View the client's
// transport maps server indices through the view's members, and the client
// adopts newer views when a replica rejects one of its operations.
func (c *Cluster) NewKeyspace(sys quorum.System, shards int, s register.Settings) (*Client, error) {
	if shards <= 0 {
		shards = DefaultKeyspaceShards
	}
	for shards&(shards-1) != 0 {
		shards++
	}
	if err := s.Validate(sys); err != nil {
		return nil, err
	}
	if c.closed.Load() {
		return nil, ErrClosed
	}
	c.mu.Lock()
	n := len(c.servers)
	if s.View == nil && sys.N() != n {
		c.mu.Unlock()
		return nil, fmt.Errorf("cluster: quorum system covers %d servers, cluster has %d", sys.N(), n)
	}
	id := c.nextID
	c.nextID++
	inbox := make(chan envelope, 16*n)
	c.clients[id] = inbox
	c.mu.Unlock()
	tr := &clusterTransport{c: c, id: id, inbox: inbox, done: make(chan struct{})}
	if s.View != nil {
		if err := tr.Update(*s.View); err != nil {
			tr.Close()
			return nil, err
		}
	}
	var rt transport.Transport = tr
	if s.Counters != nil {
		rt = transport.Instrument(tr, s.Counters)
	}
	s.Proc = id
	engines := make([]*register.Engine, shards)
	for i := range engines {
		// s was validated above, so the builder cannot fail.
		engines[i], _ = s.Engine(int32(id), sys, rng.Derive(c.seed, fmt.Sprintf("cluster.client.%d.%d", id, i)),
			register.WithOpStride(uint64(i), uint64(shards)))
	}
	return &Client{id: id, ks: register.NewKeyspaceOver(engines, rt, register.ApplyPipeline(s)), tr: tr}, nil
}

// ID returns the client's node identifier.
func (cl *Client) ID() msg.NodeID { return cl.id }

// Keyspace exposes the underlying keyspace: its shards' pipelines and
// engines, and the aggregate retry, in-flight, cache-hit, fast-read, epoch
// and health accessors.
func (cl *Client) Keyspace() *register.Keyspace { return cl.ks }

// Read performs one read of reg and returns the tagged value.
func (cl *Client) Read(reg msg.RegisterID) (msg.Tagged, error) {
	return cl.ks.Read(reg)
}

// ReadAtomic performs an ABD-style atomic read: a quorum read followed, when
// the quorum's replies disagree, by a write-back of the observed value to a
// full (write-)quorum, awaited before returning. Over a strict quorum system
// this yields single-writer atomicity; over a probabilistic system atomicity
// holds with high probability.
func (cl *Client) ReadAtomic(reg msg.RegisterID) (msg.Tagged, error) {
	return cl.ks.ReadAtomic(reg)
}

// Write performs one single-writer write of val to reg.
func (cl *Client) Write(reg msg.RegisterID, val msg.Value) error {
	return cl.ks.Write(reg, val)
}

// WriteMulti performs a multi-writer write: it first reads the register to
// discover the current maximum timestamp, then writes with a larger one
// (the paper's Section 8 extension built from known register algorithms).
// It returns the timestamp the write carried.
func (cl *Client) WriteMulti(reg msg.RegisterID, val msg.Value) (msg.Timestamp, error) {
	return cl.ks.WriteMulti(reg, val)
}

// ReadAsync submits a read and returns immediately.
func (cl *Client) ReadAsync(reg msg.RegisterID) *register.PendingOp {
	return cl.ks.ReadAsync(reg)
}

// ReadAtomicAsync submits an ABD atomic read and returns immediately.
func (cl *Client) ReadAtomicAsync(reg msg.RegisterID) *register.PendingOp {
	return cl.ks.ReadAtomicAsync(reg)
}

// WriteAsync submits a write and returns immediately.
func (cl *Client) WriteAsync(reg msg.RegisterID, val msg.Value) *register.PendingOp {
	return cl.ks.WriteAsync(reg, val)
}

// Close detaches the client from the cluster — deliveries to it are dropped
// from then on — and fails all pending operations with ErrClosed. It is
// idempotent.
func (cl *Client) Close() {
	cl.tr.Close()
	cl.ks.Close(ErrClosed)
}
