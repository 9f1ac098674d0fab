// Package cluster is the concurrent runtime for the register protocol: real
// goroutines exchanging messages over channels, with optional artificial
// delays and server crashes. It deploys exactly the same protocol cores
// (register sessions, replica stores) as the discrete-event simulator, which
// is what makes the spec-level tests meaningful for both.
//
// Topology: n replica-server goroutines, each owning a replica.Store, plus
// any number of client handles. A client performs blocking Read/Write
// operations; each operation fans a request out to a quorum and waits for
// every member's reply, retrying with a fresh quorum on timeout (the paper's
// failure-free model never needs the retry; crash experiments do).
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
	"probquorum/internal/trace"
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

	clock atomic.Int64 // logical time for trace records
	seed  uint64

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
// WithMasking.
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

// tick advances the cluster's logical clock, used to order trace records.
func (c *Cluster) tick() int64 { return c.clock.Add(1) }

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

// Client is one application process's blocking register interface: a thin
// adapter binding a register.Client — a depth-one register.Pipeline — to
// this cluster.
type Client struct {
	id msg.NodeID
	rc *register.Client
	tr *clusterTransport
}

// ClientOption configures a client.
type ClientOption func(*clientConfig)

// clientConfig embeds the shared register.Settings — the transport-
// independent client configuration — plus the engine variants only this
// runtime exposes. Every With* option is a thin wrapper writing one field;
// the constructors hand the Settings to register.ApplyPipeline.
type clientConfig struct {
	register.Settings

	monotone   bool
	readRepair bool
	maskB      int
	masking    bool
	noFastRead bool
	tally      *metrics.AccessTally
	view       quorum.View
	hasView    bool
}

// checkSys validates the constructor's quorum system against the cluster (or
// the client's view, which supersedes the cluster's static extent).
func (c *Cluster) checkSys(sys quorum.System, cc *clientConfig) error {
	if cc.hasView {
		if err := cc.view.Validate(); err != nil {
			return fmt.Errorf("cluster: %w", err)
		}
		if sys.N() != cc.view.N() {
			return fmt.Errorf("cluster: quorum system covers %d servers, view has %d",
				sys.N(), cc.view.N())
		}
		return nil
	}
	c.mu.Lock()
	n := len(c.servers)
	c.mu.Unlock()
	if sys.N() != n {
		return fmt.Errorf("cluster: quorum system covers %d servers, cluster has %d",
			sys.N(), n)
	}
	return nil
}

// attached is one registered client process: its applied options, node
// identity, and transport — rt is tr behind the message-counting shim when
// the caller passed counters.
type attached struct {
	clientConfig
	c  *Cluster
	id msg.NodeID
	tr *clusterTransport
	rt transport.Transport
}

// attach is the construction path shared by NewClient, NewPipeline and
// NewKeyspace: options → system check → process id and inbox → transport
// (re-targeted at the client's view) → optional counting shim.
func (c *Cluster) attach(sys quorum.System, opts []ClientOption) (*attached, error) {
	a := &attached{c: c}
	for _, o := range opts {
		o(&a.clientConfig)
	}
	if err := c.checkSys(sys, &a.clientConfig); err != nil {
		return nil, err
	}
	if c.closed.Load() {
		return nil, ErrClosed
	}
	c.mu.Lock()
	a.id = c.nextID
	c.nextID++
	inbox := make(chan envelope, 16*len(c.servers))
	c.clients[a.id] = inbox
	c.mu.Unlock()
	a.tr = &clusterTransport{c: c, id: a.id, inbox: inbox, done: make(chan struct{})}
	if a.hasView {
		if err := a.tr.Update(a.view); err != nil {
			a.tr.Close()
			return nil, err
		}
	}
	a.Proc = a.id
	a.Clock = c.tick
	a.rt = a.tr
	if a.Counters != nil {
		a.rt = transport.Instrument(a.tr, a.Counters)
	}
	return a, nil
}

// engine builds one of the process's engines over sys with the client's
// variants, its randomness derived from the cluster seed under label.
func (a *attached) engine(sys quorum.System, label string, extra ...register.Option) *register.Engine {
	opts := extra
	if a.monotone {
		opts = append(opts, register.Monotone())
	}
	if a.readRepair {
		opts = append(opts, register.WithReadRepair())
	}
	if a.masking {
		opts = append(opts, register.WithMasking(a.maskB))
	}
	if a.noFastRead {
		opts = append(opts, register.WithoutFastRead())
	}
	if a.tally != nil {
		opts = append(opts, register.WithTally(a.tally))
	}
	if a.hasView {
		opts = append(opts, register.WithView(a.view))
	}
	return register.NewEngine(int32(a.id), sys, rng.Derive(a.c.seed, label), opts...)
}

// WithoutFastRead disables the atomic read's one-round-trip fast path for
// this client (see register.WithoutFastRead) — the ablation knob for the
// paired fast-path benchmark.
func WithoutFastRead() ClientOption {
	return func(c *clientConfig) { c.noFastRead = true }
}

// WithMonotone enables the monotone register variant for this client.
func WithMonotone() ClientOption {
	return func(c *clientConfig) { c.monotone = true }
}

// WithReadRepair makes the client push the freshest value it reads back to
// the quorum members that replied with older timestamps (write-back).
func WithReadRepair() ClientOption {
	return func(c *clientConfig) { c.readRepair = true }
}

// WithMasking enables b-masking reads: only values vouched for identically
// by more than b quorum members are accepted, defeating up to b Byzantine
// servers per quorum; reads without enough votes retry with a fresh quorum.
func WithMasking(b int) ClientOption {
	return func(c *clientConfig) { c.masking = true; c.maskB = b }
}

// WithOpTimeout makes operations retry with a fresh quorum if a quorum
// member does not answer within d (needed when servers may crash). Combine
// with WithRetries to bound the attempts; this matches the tcp and register
// packages' option naming.
func WithOpTimeout(d time.Duration) ClientOption {
	return func(c *clientConfig) { c.OpTimeout = d }
}

// WithRetries caps the attempts per operation (0 = unlimited); exhaustion
// surfaces register.ErrQuorumUnavailable.
func WithRetries(n int) ClientOption {
	return func(c *clientConfig) { c.Retries = n }
}

// WithTrace records the client's completed operations into log.
func WithTrace(log *trace.Log) ClientOption {
	return func(c *clientConfig) { c.Trace = log }
}

// WithTally records the client's quorum picks into t.
func WithTally(t *metrics.AccessTally) ClientOption {
	return func(c *clientConfig) { c.tally = t }
}

// WithTransportCounters shares tc with the client: fault-path events, plus
// the logical message counts (one MsgsSent per request handed to the
// cluster, one MsgsRecv per reply delivered back) for cross-transport
// message-complexity comparisons.
func WithTransportCounters(tc *metrics.TransportCounters) ClientOption {
	return func(c *clientConfig) { c.Counters = tc }
}

// WithObserver records phase-level operation timings (pick, fan-out,
// quorum-wait, write-back, end-to-end) into obs; register the observer into
// an obs.Registry to watch the quantiles live.
func WithObserver(obs *register.Observer) ClientOption {
	return func(c *clientConfig) { c.Observer = obs }
}

// NewClient registers a new client process using the given quorum system.
func (c *Cluster) NewClient(sys quorum.System, opts ...ClientOption) (*Client, error) {
	a, err := c.attach(sys, opts)
	if err != nil {
		return nil, err
	}
	engine := a.engine(sys, fmt.Sprintf("cluster.client.%d", a.id))
	return &Client{
		id: a.id,
		rc: register.NewClient(engine, a.rt, register.ApplyPipeline(a.Settings)...),
		tr: a.tr,
	}, nil
}

// ID returns the client's node identifier.
func (cl *Client) ID() msg.NodeID { return cl.id }

// Detach unregisters the client from the cluster: subsequent deliveries to
// it are dropped. The client must not be used afterwards.
func (cl *Client) Detach() {
	cl.tr.Close()
}

// Engine exposes the client's register engine (tests inspect cache hits).
func (cl *Client) Engine() *register.Engine { return cl.rc.Engine() }

// Read performs one read of reg and returns the tagged value.
func (cl *Client) Read(reg msg.RegisterID) (msg.Tagged, error) {
	return cl.rc.Read(reg)
}

// ReadAtomic performs an ABD-style atomic read: a quorum read followed by a
// write-back of the observed value to a full (write-)quorum, awaited before
// returning. Over a strict quorum system this yields single-writer
// atomicity; over a probabilistic system atomicity holds with high
// probability (see register.Client.ReadAtomic).
func (cl *Client) ReadAtomic(reg msg.RegisterID) (msg.Tagged, error) {
	return cl.rc.ReadAtomic(reg)
}

// Write performs one single-writer write of val to reg.
func (cl *Client) Write(reg msg.RegisterID, val msg.Value) error {
	_, err := cl.rc.Write(reg, val)
	return err
}

// WriteMulti performs a multi-writer write: it first reads the register to
// discover the current maximum timestamp, then writes with a larger one
// (the paper's Section 8 extension built from known register algorithms).
// It returns the timestamp the write carried.
func (cl *Client) WriteMulti(reg msg.RegisterID, val msg.Value) (msg.Timestamp, error) {
	return cl.rc.WriteMulti(reg, val)
}
