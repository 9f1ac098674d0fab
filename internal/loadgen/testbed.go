package loadgen

import (
	"fmt"
	"sync"
	"time"

	"probquorum/internal/faults"
	"probquorum/internal/metrics"
	"probquorum/internal/msg"
	"probquorum/internal/obs"
	"probquorum/internal/quorum"
	"probquorum/internal/replica"
	"probquorum/internal/transport/tcp"
)

// TestbedConfig sizes an in-process TCP plant.
type TestbedConfig struct {
	// Servers is the initial replica count (default 5; majority quorums).
	Servers int
	// Clients is how many keyspace clients (= Targets) to dial (default 2).
	Clients int
	// Shards is the per-client keyspace shard count (default 4).
	Shards int
	// OpTimeout bounds one client operation attempt (default 250ms).
	OpTimeout time.Duration
	// JoinTimeout bounds a state transfer during grow/shrink (default 5s).
	JoinTimeout time.Duration
	// Registry, when set, receives every server's health probe and metrics
	// plus per-client transport counters and each client's per-server
	// suspicion probes (for the servers of the initial view).
	Registry *obs.Registry
}

// Testbed is a real TCP replica cluster whose every byte flows through a
// faults.Link proxy per server — the addresses in the cluster's views are
// the proxy addresses, so client traffic AND grow/shrink state transfers
// are subject to the same injected partitions and delays. It implements
// faults.Plant, making it the execution target for fault-schedule DSL
// programs, and its clients implement Target for the open-loop driver.
//
// Grow appends servers (seal old view -> each joiner merges a read quorum
// -> listen -> install the new view everywhere); Shrink retires the highest
// -numbered servers after the survivors merge a read quorum of the view
// being retired — the PR 8 reconfiguration discipline, exercised here under
// load rather than in a test harness.
type Testbed struct {
	cfg TestbedConfig

	mu      sync.Mutex
	stores  []*replica.Store
	servers []*tcp.Server
	links   []*faults.Link
	active  int // servers[:active] are in the current view
	epoch   quorum.Epoch
	view    quorum.View

	clients []*tcp.Client
}

// NewTestbed starts the servers, their link proxies, and the clients.
func NewTestbed(cfg TestbedConfig) (*Testbed, error) {
	if cfg.Servers == 0 {
		cfg.Servers = 5
	}
	if cfg.Clients == 0 {
		cfg.Clients = 2
	}
	if cfg.Shards == 0 {
		cfg.Shards = 4
	}
	if cfg.OpTimeout == 0 {
		cfg.OpTimeout = 250 * time.Millisecond
	}
	if cfg.JoinTimeout == 0 {
		cfg.JoinTimeout = 5 * time.Second
	}
	tb := &Testbed{cfg: cfg}
	for i := 0; i < cfg.Servers; i++ {
		if err := tb.startServer(); err != nil {
			tb.Close()
			return nil, err
		}
	}
	tb.active = cfg.Servers
	tb.epoch = 1
	tb.view = tb.identityView()
	for _, st := range tb.stores {
		st.SetView(tb.view)
	}
	for c := 0; c < cfg.Clients; c++ {
		opts := []tcp.ClientOption{
			tcp.WithView(tb.view),
			tcp.WithOpTimeout(cfg.OpTimeout),
			tcp.WithWriter(int32(c + 1)),
			tcp.WithSeed(uint64(c + 1)),
		}
		if cfg.Registry != nil {
			tc := &metrics.TransportCounters{}
			tc.Register(fmt.Sprintf("loadgen.client.%d", c), cfg.Registry)
			opts = append(opts, tcp.WithTransportCounters(tc))
		}
		cl, err := tcp.DialKeyspace(nil, tb.view.System(), cfg.Shards, opts...)
		if err != nil {
			tb.Close()
			return nil, fmt.Errorf("loadgen: dial client %d: %w", c, err)
		}
		if cfg.Registry != nil {
			cl.RegisterHealth(cfg.Registry, fmt.Sprintf("loadgen.client.%d.server", c))
		}
		tb.clients = append(tb.clients, cl)
	}
	return tb, nil
}

// startServer appends one store+server+link triple. Caller holds no lock
// during construction; the slices are only mutated here and in Grow/Shrink
// under mu (NewTestbed runs before any concurrency exists).
func (tb *Testbed) startServer() error {
	id := len(tb.stores)
	st := replica.New(msg.NodeID(id), nil)
	srv, err := tcp.Listen(st, "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("loadgen: server %d: %w", id, err)
	}
	link, err := faults.NewLink(srv.Addr())
	if err != nil {
		srv.Close()
		return fmt.Errorf("loadgen: link %d: %w", id, err)
	}
	tb.observe(id, st, srv)
	tb.stores = append(tb.stores, st)
	tb.servers = append(tb.servers, srv)
	tb.links = append(tb.links, link)
	return nil
}

// observe attaches server id to the testbed's registry, if it has one: the
// server's health probe, and its store's table gauges (keys, table_slots,
// table_bytes — bytes per key and occupancy per server) and membership
// metrics, all under "loadgen.server.<id>". A server that rejoins with a
// fresh store registers again under the same names, replacing the old ones.
func (tb *Testbed) observe(id int, st *replica.Store, srv *tcp.Server) {
	if tb.cfg.Registry == nil {
		return
	}
	name := fmt.Sprintf("loadgen.server.%d", id)
	srv.RegisterHealth(tb.cfg.Registry, name)
	st.RegisterStoreMetrics(name, tb.cfg.Registry)
	st.RegisterViewMetrics(name, tb.cfg.Registry)
}

// identityView is the view over servers[:active] with proxy addresses and
// identity member IDs — the memView shape the whole stack uses.
func (tb *Testbed) identityView() quorum.View {
	members := make([]int32, tb.active)
	addrs := make([]string, tb.active)
	for i := 0; i < tb.active; i++ {
		members[i] = int32(i)
		addrs[i] = tb.links[i].Addr()
	}
	return quorum.View{Epoch: tb.epoch, Members: members, Addrs: addrs}
}

// Targets adapts the testbed's clients to the driver seam.
func (tb *Testbed) Targets() []Target {
	out := make([]Target, len(tb.clients))
	for i, c := range tb.clients {
		out[i] = c
	}
	return out
}

// Clients exposes the raw keyspace clients (epoch polling in tests).
func (tb *Testbed) Clients() []*tcp.Client { return tb.clients }

// Epoch returns the current view epoch.
func (tb *Testbed) Epoch() quorum.Epoch {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	return tb.epoch
}

// Close tears down clients, proxies, and servers.
func (tb *Testbed) Close() {
	for _, c := range tb.clients {
		c.Close()
	}
	for _, l := range tb.links {
		l.Close()
	}
	for _, s := range tb.servers {
		s.Close()
	}
}

// --- faults.Plant ---

// NumServers reports the current view size (schedule validation bound).
func (tb *Testbed) NumServers() int {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	return tb.active
}

func (tb *Testbed) server(i int) (*replica.Store, *faults.Link, error) {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	if i < 0 || i >= len(tb.stores) {
		return nil, nil, fmt.Errorf("loadgen: server %d out of range [0,%d)", i, len(tb.stores))
	}
	return tb.stores[i], tb.links[i], nil
}

// Crash marks server i crashed: its store drops every request on the floor
// until Recover, which over TCP reads as silence and client retries.
func (tb *Testbed) Crash(i int) error {
	st, _, err := tb.server(i)
	if err != nil {
		return err
	}
	st.Crash()
	return nil
}

// Recover brings a crashed server back with its pre-crash state intact.
func (tb *Testbed) Recover(i int) error {
	st, _, err := tb.server(i)
	if err != nil {
		return err
	}
	st.Recover()
	return nil
}

// Slow injects d of extra one-way delay per chunk on server i's link; zero
// restores full speed.
func (tb *Testbed) Slow(i int, d time.Duration) error {
	_, link, err := tb.server(i)
	if err != nil {
		return err
	}
	link.SetDelay(d)
	return nil
}

// Partition silences the links of the listed servers: bytes stall in both
// directions (no connection error), exactly how a network partition looks
// to a deadline-driven client.
func (tb *Testbed) Partition(servers []int) error {
	for _, i := range servers {
		_, link, err := tb.server(i)
		if err != nil {
			return err
		}
		link.SetBlocked(true)
	}
	return nil
}

// Heal unblocks every partitioned link (injected delays are separate state;
// clear them with "slow i 0").
func (tb *Testbed) Heal() error {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	for _, link := range tb.links {
		link.SetBlocked(false)
	}
	return nil
}

// Grow adds n servers with the sealed state-transfer choreography and
// installs the bigger view. Clients adopt the new epoch lazily through
// stale-epoch rejects, so the driver keeps running throughout.
func (tb *Testbed) Grow(n int) error {
	if n <= 0 {
		return fmt.Errorf("loadgen: grow %d", n)
	}
	tb.mu.Lock()
	defer tb.mu.Unlock()
	oldView := tb.view
	for _, st := range tb.stores[:tb.active] {
		st.Seal()
	}
	joined := 0
	for joined < n {
		var st *replica.Store
		if tb.active+joined < len(tb.stores) {
			// Rejoin a previously-shrunk server: wipe it by replacing the
			// store so it cannot leak retired state into the new view.
			id := tb.active + joined
			st = replica.New(msg.NodeID(id), nil)
			if err := tcp.JoinQuorum(st, oldView, tb.cfg.JoinTimeout); err != nil {
				tb.rollbackSeal()
				return fmt.Errorf("loadgen: rejoin server %d: %w", id, err)
			}
			tb.servers[id].Close()
			srv, err := tcp.Listen(st, "127.0.0.1:0")
			if err != nil {
				tb.rollbackSeal()
				return fmt.Errorf("loadgen: relisten server %d: %w", id, err)
			}
			tb.links[id].Close()
			link, err := faults.NewLink(srv.Addr())
			if err != nil {
				srv.Close()
				tb.rollbackSeal()
				return fmt.Errorf("loadgen: relink server %d: %w", id, err)
			}
			tb.observe(id, st, srv)
			tb.stores[id], tb.servers[id], tb.links[id] = st, srv, link
		} else {
			id := len(tb.stores)
			st = replica.New(msg.NodeID(id), nil)
			if err := tcp.JoinQuorum(st, oldView, tb.cfg.JoinTimeout); err != nil {
				tb.rollbackSeal()
				return fmt.Errorf("loadgen: join server %d: %w", id, err)
			}
			srv, err := tcp.Listen(st, "127.0.0.1:0")
			if err != nil {
				tb.rollbackSeal()
				return fmt.Errorf("loadgen: listen server %d: %w", id, err)
			}
			link, err := faults.NewLink(srv.Addr())
			if err != nil {
				srv.Close()
				tb.rollbackSeal()
				return fmt.Errorf("loadgen: link server %d: %w", id, err)
			}
			tb.observe(id, st, srv)
			tb.stores = append(tb.stores, st)
			tb.servers = append(tb.servers, srv)
			tb.links = append(tb.links, link)
		}
		joined++
	}
	tb.active += n
	tb.epoch++
	tb.view = tb.identityView()
	for _, st := range tb.stores[:tb.active] {
		st.SetView(tb.view)
	}
	return nil
}

// Shrink retires the n highest-numbered servers. The survivors first merge
// a read quorum of the outgoing view (a majority of the small view can be
// disjoint from a write quorum of the big one), then the smaller view goes
// current everywhere — including on the retired servers, which unseals
// them; they keep listening but are no longer in any view.
func (tb *Testbed) Shrink(n int) error {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	if n <= 0 || tb.active-n < 1 {
		return fmt.Errorf("loadgen: shrink %d of %d active servers", n, tb.active)
	}
	oldView := tb.view
	oldActive := tb.active
	for _, st := range tb.stores[:tb.active] {
		st.Seal()
	}
	for i, st := range tb.stores[:tb.active-n] {
		if err := tcp.JoinQuorum(st, oldView, tb.cfg.JoinTimeout); err != nil {
			tb.rollbackSeal()
			return fmt.Errorf("loadgen: survivor %d sync: %w", i, err)
		}
	}
	tb.active -= n
	tb.epoch++
	tb.view = tb.identityView()
	for _, st := range tb.stores[:oldActive] {
		st.SetView(tb.view)
	}
	return nil
}

// rollbackSeal recovers from a failed reconfiguration: SetView only unseals
// on a strictly newer epoch, so the current membership is reinstalled under
// a fresh epoch — the cluster keeps its shape but stops refusing operations.
func (tb *Testbed) rollbackSeal() {
	tb.epoch++
	tb.view = tb.identityView()
	for _, st := range tb.stores[:tb.active] {
		st.SetView(tb.view)
	}
}
