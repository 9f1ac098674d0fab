package register_test

// Membership conformance: epoch-based dynamic membership exercised on every
// runtime. Three properties are pinned across transports:
//
//   - Rolling restart: cycling a crash/recover through every replica under
//     sustained pipelined load produces zero client-visible errors — the
//     deadline machinery re-picks around each downed server, and no epoch
//     machinery is even needed (the view does not change).
//   - Grow/shrink: a run that reconfigures mid-stream (5 → many → 5 servers,
//     three epochs) completes with zero client-visible errors, and the
//     combined trace still passes the single-register checkers — atomicity
//     and [R2] hold ACROSS epoch boundaries, because the register semantics
//     are install-if-newer and epoch-agnostic.
//   - Join: a server that joins by state transfer holds the data and the
//     view, and a client never observes the join except as a larger view.
//
// Clients are never told about reconfigurations out of band: they discover
// each new view through the msg.StaleEpoch rejects replicas return, adopt
// it, re-target their transport, and re-fan in flight — which is exactly the
// machinery these tests exercise.

import (
	"fmt"
	"testing"
	"time"

	"probquorum/internal/cluster"
	"probquorum/internal/metrics"
	"probquorum/internal/msg"
	"probquorum/internal/quorum"
	"probquorum/internal/register"
	"probquorum/internal/replica"
	"probquorum/internal/rng"
	"probquorum/internal/sim"
	"probquorum/internal/trace"
	"probquorum/internal/transport/tcp"
)

// memView builds a view over server indices 0..n-1 (identity members), with
// the given addresses for dialing transports (nil for in-process runtimes).
func memView(epoch quorum.Epoch, n int, addrs []string) quorum.View {
	members := make([]int32, n)
	for i := range members {
		members[i] = int32(i)
	}
	return quorum.View{Epoch: epoch, Members: members, Addrs: addrs}
}

// waitEpoch polls until the client-side epoch reaches want; reconfiguration
// is discovery-driven (stale-epoch rejects under load), so adoption lags the
// server-side install by a few operation round trips.
func waitEpoch(t *testing.T, what string, want quorum.Epoch, fn func() quorum.Epoch) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		if fn() >= want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("%s: epoch stuck at %d, want >= %d", what, fn(), want)
}

// memBlockingClient is the surface the load generators need; cluster and tcp
// pipelined clients and keyspace clients all satisfy it.
type memBlockingClient interface {
	Write(msg.RegisterID, msg.Value) error
	ReadAtomic(msg.RegisterID) (msg.Tagged, error)
}

// memWriterLoad runs single-writer load — ascending writes, each followed by
// an atomic read-back — until stop closes, reporting the first error.
func memWriterLoad(cl memBlockingClient, regs int, stop <-chan struct{}) error {
	for i := 1; ; i++ {
		select {
		case <-stop:
			return nil
		default:
		}
		reg := msg.RegisterID(i % regs)
		if err := cl.Write(reg, float64(i)); err != nil {
			return fmt.Errorf("write %d: %w", i, err)
		}
		if _, err := cl.ReadAtomic(reg); err != nil {
			return fmt.Errorf("atomic read %d: %w", i, err)
		}
	}
}

// memReaderLoad runs atomic reads across the registers until stop closes.
func memReaderLoad(cl memBlockingClient, regs int, stop <-chan struct{}) error {
	for i := 0; ; i++ {
		select {
		case <-stop:
			return nil
		default:
		}
		if _, err := cl.ReadAtomic(msg.RegisterID(i % regs)); err != nil {
			return fmt.Errorf("atomic read %d: %w", i, err)
		}
	}
}

// memCheckTrace runs the cross-epoch trace checks: well-formedness, [R2]
// reads-from, and per-register atomicity (the load is single-writer per
// register, so CheckAtomic applies).
func memCheckTrace(t *testing.T, ops []trace.Op) {
	t.Helper()
	if err := trace.CheckPipelinedWellFormed(ops); err != nil {
		t.Errorf("well-formedness: %v", err)
	}
	if err := trace.CheckReadsFrom(ops); err != nil {
		t.Errorf("[R2]: %v", err)
	}
	if err := trace.CheckAtomic(ops); err != nil {
		t.Errorf("atomicity across epochs: %v", err)
	}
}

// ---------------------------------------------------------------------------
// Rolling restart: every replica crashes and recovers, one at a time, under
// sustained load. Zero client-visible errors on every transport.

const (
	rollServers = 5
	rollRegs    = 3
)

// memRollTCP is the TCP leg of the rolling-restart matrix.
func memRollTCP(t *testing.T) {
	initial := confInitial(rollRegs)
	addrs := make([]string, rollServers)
	stores := make([]*replica.Store, rollServers)
	for i := range addrs {
		stores[i] = replica.New(msg.NodeID(i), initial)
		srv, err := tcp.Listen(stores[i], "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen server %d: %v", i, err)
		}
		t.Cleanup(srv.Close)
		addrs[i] = srv.Addr()
	}
	log := &trace.Log{}
	cl, err := tcp.DialPipelined(addrs, quorum.NewMajority(rollServers),
		tcp.WithMonotone(), tcp.WithTrace(log),
		tcp.WithOpTimeout(100*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	memRollingRestart(t, cl, log,
		func(i int) { stores[i].Crash() },
		func(i int) { stores[i].Recover() })
}

// memRollingRestart drives the load/churn choreography shared by the cluster
// and TCP legs: pipelined load runs while each server in turn goes down for
// ~100ms and comes back; the client must never surface an error.
func memRollingRestart(t *testing.T, cl memBlockingClient, log *trace.Log,
	crash, recover func(i int)) {
	t.Helper()
	stop := make(chan struct{})
	loadErr := make(chan error, 1)
	go func() { loadErr <- memWriterLoad(cl, rollRegs, stop) }()

	for i := 0; i < rollServers; i++ {
		crash(i)
		time.Sleep(100 * time.Millisecond)
		recover(i)
		time.Sleep(20 * time.Millisecond)
	}
	close(stop)
	if err := <-loadErr; err != nil {
		t.Fatalf("client saw an error during a rolling restart: %v", err)
	}
	ops := log.Ops()
	if len(ops) == 0 {
		t.Fatal("no operations completed during the restart")
	}
	memCheckTrace(t, ops)
	if err := trace.CheckMonotone(ops); err != nil {
		t.Errorf("[R4]: %v", err)
	}
}

func TestMembershipRollingRestart(t *testing.T) {
	t.Run("cluster", func(t *testing.T) {
		t.Parallel()
		c, err := cluster.New(cluster.Config{Servers: rollServers, Initial: confInitial(rollRegs), Seed: 31})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		log := &trace.Log{}
		cl, err := c.NewPipeline(quorum.NewMajority(rollServers),
			cluster.WithMonotone(), cluster.WithTrace(log),
			cluster.WithOpTimeout(100*time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		memRollingRestart(t, cl, log,
			func(i int) { c.Server(i).Crash() },
			func(i int) { c.Server(i).Recover() })
	})
	t.Run("tcp", func(t *testing.T) {
		t.Parallel()
		memRollTCP(t)
	})
	t.Run("sim", func(t *testing.T) {
		t.Parallel()
		memRollSim(t)
	})
}

// memChurnNode crashes each store in turn for downFor of virtual time, with
// upFor between restarts — the simulator's churn controller.
type memChurnNode struct {
	stores         []*replica.Store
	downFor, upFor time.Duration
	idx            int
	down           bool
	rounds         int // how many full sweeps to run
}

func (c *memChurnNode) Init(ctx *sim.Context) { ctx.After(c.upFor, 0, nil) }

func (c *memChurnNode) Recv(*sim.Context, msg.NodeID, any) {}

func (c *memChurnNode) Timer(ctx *sim.Context, _ int, _ any) {
	if c.down {
		c.stores[c.idx].Recover()
		c.down = false
		c.idx++
		if c.idx == len(c.stores) {
			c.idx = 0
			if c.rounds--; c.rounds <= 0 {
				return
			}
		}
		ctx.After(c.upFor, 0, nil)
		return
	}
	c.stores[c.idx].Crash()
	c.down = true
	ctx.After(c.downFor, 0, nil)
}

// memRollSim is the rolling restart on virtual time: the scripted serial
// client re-picks via its (virtual) deadline timers while the churn node
// cycles every store through a crash.
func memRollSim(t *testing.T) {
	s := sim.New(41, sim.DistDelay{Dist: rng.Exponential{MeanD: time.Millisecond}})
	stores := make([]*replica.Store, rollServers)
	for srv := 0; srv < rollServers; srv++ {
		stores[srv] = replica.New(msg.NodeID(srv), confInitial(rollRegs))
		s.Add(msg.NodeID(srv), &replica.SimNode{Store: stores[srv]})
	}
	s.Add(msg.NodeID(100), &memChurnNode{
		stores: stores, downFor: 40 * time.Millisecond, upFor: 10 * time.Millisecond, rounds: 2})

	log := &trace.Log{}
	var script []confStep
	for i := 1; i <= 60; i++ {
		script = append(script,
			confStep{kind: 'w', reg: msg.RegisterID(i % rollRegs), val: float64(i)},
			confStep{kind: 'a', reg: msg.RegisterID(i % rollRegs)})
	}
	node := &confSimNode{
		engine: register.NewEngine(1, quorum.NewMajority(rollServers),
			rng.Derive(43, "membership.roll.sim"), register.Monotone()),
		script:  script,
		self:    msg.NodeID(rollServers),
		tr:      log,
		timeout: 15 * time.Millisecond,
		budget:  0, // unlimited: a rolling restart must never exhaust a client
	}
	s.Add(node.self, node)
	s.Run()
	if node.err != nil {
		t.Fatalf("sim client saw an error during the rolling restart: %v", node.err)
	}
	if !node.finished {
		t.Fatalf("sim client stalled at step %d", node.idx)
	}
	ops := log.Ops()
	memCheckTrace(t, ops)
	if err := trace.CheckMonotone(ops); err != nil {
		t.Errorf("[R4]: %v", err)
	}
}

// ---------------------------------------------------------------------------
// Grow/shrink: three epochs mid-stream, with the trace checked across all of
// them. The cluster leg runs the full 5 -> 34 -> 5 of the roadmap claim; the
// TCP leg keeps the socket count civil (5 -> 7 -> 5) and adds the real state
// transfer (tcp.JoinQuorum); the sim leg replays the same choreography on
// virtual time. Both legs follow the reconfiguration discipline: joiners —
// and, when shrinking, the survivors — merge a read quorum of the outgoing
// view before the next view activates.

func TestMembershipGrowShrinkCluster(t *testing.T) {
	const base, grown, regs = 5, 34, 3
	c, err := cluster.New(cluster.Config{Servers: base, Initial: confInitial(regs), Seed: 47})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	v1 := memView(1, base, nil)
	if err := c.InstallView(v1); err != nil {
		t.Fatal(err)
	}

	log := &trace.Log{}
	var tc metrics.TransportCounters
	writer, err := c.NewPipeline(v1.System(), cluster.WithView(v1), cluster.WithTrace(log),
		cluster.WithOpTimeout(100*time.Millisecond), cluster.WithTransportCounters(&tc))
	if err != nil {
		t.Fatal(err)
	}
	defer writer.Close()
	reader, err := c.NewPipeline(v1.System(), cluster.WithView(v1), cluster.WithTrace(log),
		cluster.WithOpTimeout(100*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer reader.Close()

	stop := make(chan struct{})
	errs := make(chan error, 2)
	go func() { errs <- memWriterLoad(writer, regs, stop) }()
	go func() { errs <- memReaderLoad(reader, regs, stop) }()

	// Grow: spawn the joiners, state-transfer them from a read quorum of the
	// old view (a single member would not do: a committed write only promises
	// to sit on a write quorum, so joiners must merge a majority), then make
	// the new view current — first through the reserved view register (the
	// self-hosting path: an ordinary quorum write under the OLD view), then
	// InstallView as the deterministic admin-side completion.
	v2 := memView(2, grown, nil)
	joiners := make([]int, 0, grown-base)
	for i := base; i < grown; i++ {
		idx, err := c.AddServer(nil)
		if err != nil {
			t.Fatal(err)
		}
		if idx != i {
			t.Fatalf("AddServer returned index %d, want %d", idx, i)
		}
		joiners = append(joiners, idx)
	}
	// Seal the old members before the transfer: state captured by the sync
	// must be final for epoch 1, or a write completing on an old-view quorum
	// afterwards could be invisible to the 34-server view's quorums. The
	// self-hosted view write below still goes through — the reserved view
	// register is exempt — and its SetView side effect is what unseals.
	for i := 0; i < base; i++ {
		c.Server(i).Seal()
	}
	if err := c.SyncFromQuorum(v1, joiners); err != nil {
		t.Fatal(err)
	}
	admin, err := c.NewClient(v1.System(), cluster.WithView(v1))
	if err != nil {
		t.Fatal(err)
	}
	if err := admin.Write(msg.ViewKey, msg.EncodeView(v2)); err != nil {
		t.Fatalf("self-hosted view write: %v", err)
	}
	if err := c.InstallView(v2); err != nil {
		t.Fatal(err)
	}
	waitEpoch(t, "writer grow", 2, writer.Pipeline().Epoch)
	waitEpoch(t, "reader grow", 2, reader.Pipeline().Epoch)
	time.Sleep(150 * time.Millisecond) // load genuinely spans the 34-server view

	// Shrink back to the original five. The survivors must merge a read
	// quorum of the 34-server view before it is retired: a majority of the
	// five can be disjoint from a 34-view write quorum, so without the sync a
	// write committed on the big view could vanish from every new quorum.
	v3 := memView(3, base, nil)
	survivors := make([]int, base)
	for i := range survivors {
		survivors[i] = i
	}
	// Same discipline on the way down: seal the whole 34-server view before
	// the survivors merge it, so nothing commits on big-view quorums after
	// the merge; InstallView(v3) unseals.
	for i := 0; i < grown; i++ {
		c.Server(i).Seal()
	}
	if err := c.SyncFromQuorum(v2, survivors); err != nil {
		t.Fatal(err)
	}
	if err := c.InstallView(v3); err != nil {
		t.Fatal(err)
	}
	waitEpoch(t, "writer shrink", 3, writer.Pipeline().Epoch)
	waitEpoch(t, "reader shrink", 3, reader.Pipeline().Epoch)
	time.Sleep(100 * time.Millisecond)

	close(stop)
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("client saw an error across the reconfiguration: %v", err)
		}
	}
	memCheckTrace(t, log.Ops())
	if tc.ViewAdopts.Value() < 2 {
		t.Errorf("writer adopted %d views, want >= 2 (grow + shrink)", tc.ViewAdopts.Value())
	}
	joins, drains, _ := c.Server(0).ViewStats()
	if joins < int64(grown) || drains < int64(grown-base) {
		t.Errorf("server 0 ViewStats = %d joins/%d drains, want >= %d/%d",
			joins, drains, grown, grown-base)
	}
	// The clients can only have learned the new epochs through stale-epoch
	// rejects — but WHICH server issues them depends on quorum picks, so the
	// count is only meaningful summed across the original members.
	var stale int64
	for i := 0; i < base; i++ {
		_, _, s := c.Server(i).ViewStats()
		stale += s
	}
	if stale == 0 {
		t.Error("no server ever issued a stale-epoch reject; the clients cannot have migrated lazily")
	}
	// The self-hosted copy survives: the view register on server 0 decodes,
	// and the store's installed view is the newest it has seen.
	if got := c.Server(0).Get(msg.ViewKey); got.Val != nil {
		if b, ok := got.Val.([]byte); ok {
			if dv, err := msg.DecodeView(b); err != nil || dv.Epoch == 0 {
				t.Errorf("view register holds undecodable view: %v", err)
			}
		}
	}
	if e := c.Server(0).Epoch(); e != 3 {
		t.Errorf("server 0 epoch = %d, want 3", e)
	}
}

func TestMembershipGrowShrinkTCP(t *testing.T) {
	const base, grown, regs = 5, 7, 3
	initial := confInitial(regs)
	addrs := make([]string, base, grown)
	stores := make([]*replica.Store, base, grown)
	servers := make([]*tcp.Server, base, grown)
	for i := 0; i < base; i++ {
		stores[i] = replica.New(msg.NodeID(i), initial)
		srv, err := tcp.Listen(stores[i], "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen server %d: %v", i, err)
		}
		t.Cleanup(srv.Close)
		addrs[i] = srv.Addr()
		servers[i] = srv
	}
	v1 := memView(1, base, addrs)
	for _, st := range stores {
		st.SetView(v1)
	}

	log := &trace.Log{}
	var tc metrics.TransportCounters
	writer, err := tcp.DialPipelined(nil, v1.System(), tcp.WithView(v1),
		tcp.WithTrace(log), tcp.WithOpTimeout(100*time.Millisecond),
		tcp.WithTransportCounters(&tc))
	if err != nil {
		t.Fatal(err)
	}
	defer writer.Close()
	// The reader is a keyspace client: the grow/shrink must also flow through
	// the shard-routed StaleEpoch path and the shared-transport re-target.
	reader, err := tcp.DialKeyspace(nil, v1.System(), 4, tcp.WithView(v1),
		tcp.WithTrace(log), tcp.WithWriter(2), tcp.WithSeed(2),
		tcp.WithOpTimeout(100*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer reader.Close()

	stop := make(chan struct{})
	errs := make(chan error, 2)
	go func() { errs <- memWriterLoad(writer, regs, stop) }()
	go func() { errs <- memReaderLoad(reader, regs, stop) }()

	// Grow: seal the old members first — a sealed store refuses every
	// epoch-stamped operation, so no write can complete on old-view quorums
	// after the joiners have merged their snapshots (such a write need not
	// be visible to the new view's quorums: a 4-of-7 read can miss a 3-of-5
	// write). Then each joiner merges snapshots from a read quorum of the
	// old view (the real state transfer — one member would not do, a
	// committed write only promises to sit on a write quorum), then starts
	// listening, then the new view goes current, unsealing everyone.
	for _, st := range stores {
		st.Seal()
	}
	for i := base; i < grown; i++ {
		st := replica.New(msg.NodeID(i), nil)
		if err := tcp.JoinQuorum(st, v1, 2*time.Second); err != nil {
			t.Fatalf("join server %d: %v", i, err)
		}
		if st.Epoch() != 1 {
			t.Fatalf("joiner %d transferred epoch %d, want 1", i, st.Epoch())
		}
		srv, err := tcp.Listen(st, "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen joiner %d: %v", i, err)
		}
		t.Cleanup(srv.Close)
		stores = append(stores, st)
		addrs = append(addrs, srv.Addr())
		servers = append(servers, srv)
	}
	v2 := memView(2, grown, addrs)
	for _, st := range stores {
		st.SetView(v2)
	}
	waitEpoch(t, "writer grow", 2, writer.Pipeline().Epoch)
	waitEpoch(t, "reader grow", 2, reader.Keyspace().Epoch)
	time.Sleep(150 * time.Millisecond)

	// Shrink: seal the whole 7-server view, then the survivors merge a read
	// quorum of it (a 3-of-5 majority can be disjoint from a 4-of-7 write
	// quorum), then the smaller view goes current. Without the seal a write
	// finishing on a 4-of-7 quorum after the survivor sync would be lost to
	// every 3-of-5 quorum of the new view.
	v3 := memView(3, base, addrs[:base])
	for _, st := range stores {
		st.Seal()
	}
	for _, st := range stores[:base] {
		if err := tcp.JoinQuorum(st, v2, 2*time.Second); err != nil {
			t.Fatalf("survivor sync: %v", err)
		}
	}
	for _, st := range stores {
		st.SetView(v3)
	}
	waitEpoch(t, "writer shrink", 3, writer.Pipeline().Epoch)
	waitEpoch(t, "reader shrink", 3, reader.Keyspace().Epoch)
	time.Sleep(100 * time.Millisecond)

	close(stop)
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("client saw an error across the reconfiguration: %v", err)
		}
	}
	memCheckTrace(t, log.Ops())
	if tc.ViewAdopts.Value() < 2 {
		t.Errorf("writer adopted %d views, want >= 2", tc.ViewAdopts.Value())
	}
	// /healthz material: every server reports the final epoch and view size.
	for i, srv := range servers {
		h := srv.Health()
		if h.Epoch != 3 || h.View != base {
			t.Errorf("server %d health reports epoch %d view %d, want 3/%d", i, h.Epoch, h.View, base)
		}
	}
	var stale int64
	for _, st := range stores {
		_, _, s := st.ViewStats()
		stale += s
	}
	if stale == 0 {
		t.Error("no server ever issued a stale-epoch reject; the clients cannot have migrated lazily")
	}
}

// memSimNode drives a script of serial operations on virtual time, adopting
// newer views delivered through StaleEpoch rejects: the sim-side mirror of
// the pipelined client's view handling (adopt, re-fan without spending
// budget), over the same register.Operation surface.
type memSimNode struct {
	engine  *register.Engine
	script  []confStep
	self    msg.NodeID
	tr      *trace.Log
	timeout time.Duration

	idx      int
	cur      *register.Operation
	sends    []register.Send
	invoke   sim.Time
	wsHandle int
	attempt  uint64
	adopted  int
	finished bool
	err      error
}

func (n *memSimNode) Init(ctx *sim.Context) { n.next(ctx) }

func (n *memSimNode) next(ctx *sim.Context) {
	if n.idx >= len(n.script) {
		n.finished = true
		n.cur = nil
		return
	}
	st := n.script[n.idx]
	switch st.kind {
	case 'a':
		n.cur = n.engine.NewAtomicReadOp(st.reg, 0)
	case 'r':
		n.cur = n.engine.NewReadOp(st.reg, 0)
	default:
		n.cur = n.engine.NewWriteOp(st.reg, st.val, 0)
	}
	n.invoke = ctx.Now()
	n.sends = n.cur.Start(n.sends)
	if st.kind == 'w' && n.tr != nil {
		n.wsHandle = n.tr.Begin(trace.Op{
			Kind: trace.KindWrite, Proc: n.self, Reg: st.reg,
			Invoke: int64(n.invoke), Tag: n.cur.PendingTag(),
		})
	}
	n.dispatch(ctx)
	n.arm(ctx)
}

func (n *memSimNode) dispatch(ctx *sim.Context) {
	defer func() { n.sends = n.sends[:0] }()
	for _, sd := range n.sends {
		// Identity views (members i at position i) keep the position == node
		// id equality the simulator's addressing relies on.
		ctx.Send(msg.NodeID(sd.Server), sd.Req)
	}
}

func (n *memSimNode) arm(ctx *sim.Context) {
	n.attempt++
	ctx.After(n.timeout, 1, n.attempt)
}

func (n *memSimNode) Timer(ctx *sim.Context, _ int, payload any) {
	if att, ok := payload.(uint64); !ok || att != n.attempt {
		return
	}
	if n.cur == nil || n.cur.Done() {
		return
	}
	var err error
	if n.sends, err = n.cur.Retry(n.sends); err != nil {
		n.err = fmt.Errorf("sim proc %d: %w", int(n.self), err)
		n.cur = nil
		return
	}
	n.dispatch(ctx)
	n.arm(ctx)
}

func (n *memSimNode) Recv(ctx *sim.Context, from msg.NodeID, m any) {
	if n.cur == nil || n.cur.Done() {
		return
	}
	if rej, ok := m.(msg.StaleEpoch); ok {
		if n.cur.DeliverStaleEpoch(int(from), rej) {
			// Adopt and re-fan against the new view — no budget spent,
			// exactly like Pipeline.StaleEpoch: a reconfiguration is not a
			// fault.
			if n.engine.AdoptView(rej.View) {
				n.adopted++
			}
			n.sends = n.cur.RetryView(n.sends)
			n.dispatch(ctx)
			n.arm(ctx)
		}
		return
	}
	n.sends = n.cur.Deliver(int(from), m, n.sends)
	n.dispatch(ctx)
	if n.cur.Rejected() {
		n.Timer(ctx, 1, n.attempt) // same path as a deadline: fresh quorum
		return
	}
	if !n.cur.Done() {
		return
	}
	if st := n.script[n.idx]; st.kind == 'w' {
		if n.tr != nil {
			n.tr.Complete(n.wsHandle, int64(ctx.Now()))
		}
	} else if n.tr != nil {
		n.tr.Record(trace.Op{
			Kind: trace.KindRead, Proc: n.self, Reg: n.cur.Reg(),
			Invoke: int64(n.invoke), Respond: int64(ctx.Now()), Tag: n.cur.Result(),
		})
	}
	n.idx++
	n.next(ctx)
}

// memViewSwitchNode installs prepared views on every store at scheduled
// virtual times — the simulator's reconfiguration controller.
type memViewSwitchNode struct {
	stores  []*replica.Store
	views   []quorum.View
	at      []time.Duration
	stepped int
}

func (c *memViewSwitchNode) Init(ctx *sim.Context) { ctx.After(c.at[0], 0, nil) }

func (c *memViewSwitchNode) Recv(*sim.Context, msg.NodeID, any) {}

func (c *memViewSwitchNode) Timer(ctx *sim.Context, _ int, _ any) {
	for _, st := range c.stores {
		st.SetView(c.views[c.stepped])
	}
	if c.stepped++; c.stepped < len(c.views) {
		ctx.After(c.at[c.stepped]-c.at[c.stepped-1], 0, nil)
	}
}

// TestMembershipGrowShrinkSim replays the grow/shrink choreography on
// virtual time: 5 -> 9 -> 5 over three epochs, a single writer and an atomic
// reader riding through both switches on stale-epoch rejects alone.
func TestMembershipGrowShrinkSim(t *testing.T) {
	const base, grown, regs = 5, 9, 3
	s := sim.New(53, sim.DistDelay{Dist: rng.Exponential{MeanD: time.Millisecond}})
	stores := make([]*replica.Store, grown)
	for srv := 0; srv < grown; srv++ {
		// All nodes exist in the simulated network from the start; membership
		// is what brings the last four into (and back out of) service.
		stores[srv] = replica.New(msg.NodeID(srv), confInitial(regs))
		s.Add(msg.NodeID(srv), &replica.SimNode{Store: stores[srv]})
	}
	v1, v2, v3 := memView(1, base, nil), memView(2, grown, nil), memView(3, base, nil)
	for _, st := range stores[:base] {
		st.SetView(v1)
	}
	s.Add(msg.NodeID(200), &memViewSwitchNode{
		stores: stores,
		views:  []quorum.View{v2, v3},
		at:     []time.Duration{60 * time.Millisecond, 160 * time.Millisecond},
	})

	log := &trace.Log{}
	newNode := func(pi int, script []confStep) *memSimNode {
		return &memSimNode{
			engine: register.NewEngine(int32(pi+1), v1.System(),
				rng.Derive(59, fmt.Sprintf("membership.grow.sim.%d", pi)),
				register.WithView(v1)),
			script:  script,
			self:    msg.NodeID(grown + pi),
			tr:      log,
			timeout: 15 * time.Millisecond,
		}
	}
	var wscript []confStep
	for i := 1; i <= 80; i++ {
		wscript = append(wscript,
			confStep{kind: 'w', reg: msg.RegisterID(i % regs), val: float64(i)},
			confStep{kind: 'a', reg: msg.RegisterID(i % regs)})
	}
	writer := newNode(0, wscript)
	reader := newNode(1, repeatSteps('a', 0, 120))
	s.Add(writer.self, writer)
	s.Add(reader.self, reader)
	s.Run()

	for _, n := range []*memSimNode{writer, reader} {
		if n.err != nil {
			t.Fatalf("sim proc %d saw an error across the reconfiguration: %v", int(n.self), n.err)
		}
		if !n.finished {
			t.Fatalf("sim proc %d stalled at step %d (epoch %d)", int(n.self), n.idx, n.engine.Epoch())
		}
	}
	if writer.adopted == 0 && reader.adopted == 0 {
		t.Fatal("neither client ever adopted a view; the switches cannot have happened mid-stream")
	}
	memCheckTrace(t, log.Ops())
}

// ---------------------------------------------------------------------------
// Crash-join race: a server crashes, a replacement joins by state transfer
// from the surviving read quorum, the view moves on without the crashed
// server — all under load, with zero client-visible errors and nothing lost.

func TestMembershipCrashJoinRace(t *testing.T) {
	const base, regs = 5, 3
	c, err := cluster.New(cluster.Config{Servers: base, Initial: confInitial(regs), Seed: 61})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	v1 := memView(1, base, nil)
	if err := c.InstallView(v1); err != nil {
		t.Fatal(err)
	}
	log := &trace.Log{}
	cl, err := c.NewPipeline(v1.System(), cluster.WithView(v1), cluster.WithTrace(log),
		cluster.WithOpTimeout(100*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	stop := make(chan struct{})
	loadErr := make(chan error, 1)
	go func() { loadErr <- memWriterLoad(cl, regs, stop) }()
	time.Sleep(50 * time.Millisecond)

	// Server 0 dies. While it is down, a replacement joins by merging the
	// surviving read quorum (the crashed member is skipped, like any silent
	// server) and a view replaces the dead member with the joiner.
	c.Server(0).Crash()
	idx, err := c.AddServer(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SyncFromQuorum(v1, []int{idx}); err != nil {
		t.Fatal(err)
	}
	v2 := quorum.View{Epoch: 2, Members: []int32{int32(idx), 1, 2, 3, 4}}
	if err := c.InstallView(v2); err != nil {
		t.Fatal(err)
	}
	waitEpoch(t, "crash-join", 2, cl.Pipeline().Epoch)
	time.Sleep(150 * time.Millisecond)

	close(stop)
	if err := <-loadErr; err != nil {
		t.Fatalf("client saw an error across the crash-join: %v", err)
	}
	memCheckTrace(t, log.Ops())
	if err := trace.CheckMonotone(log.Ops()); err == nil {
		// Monotone not configured on this client; CheckMonotone still must
		// not fail on a single-writer trace.
	} else {
		t.Errorf("[R4]: %v", err)
	}
	// The late recovery is harmless: the recovered server is outside the
	// view and clients no longer address it.
	c.Server(0).Recover()
	if got, err := cl.ReadAtomic(0); err != nil || got.Val == nil {
		t.Fatalf("read after recovery: %v (val %v)", err, got.Val)
	}
	joins, _, _ := c.Server(idx).ViewStats()
	if joins == 0 {
		t.Error("joiner installed no view")
	}
}

// ---------------------------------------------------------------------------
// View change landing mid-batch: the coalescing server answers a pipelined
// client whose request batches straddle a reconfiguration, so one coalesced
// reply frame carries stale-epoch rejects next to ordinary replies. The
// epoch-echo invariant makes that safe: every element echoes its own
// request's epoch, a reject is never relabeled with a batch-mate's newer
// epoch. This row pins the end-to-end consequence — the client rides the
// reconfiguration with zero visible errors and an atomicity-clean trace —
// plus the server-side evidence that rejects really were mixed into live
// reply traffic.

func TestMembershipViewChangeMidBatch(t *testing.T) {
	const (
		servers = 5
		regs    = 3
	)
	initial := confInitial(regs)
	addrs := make([]string, servers)
	stores := make([]*replica.Store, servers)
	srvs := make([]*tcp.Server, servers)
	for i := range addrs {
		stores[i] = replica.New(msg.NodeID(i), initial)
		srv, err := tcp.Listen(stores[i], "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen server %d: %v", i, err)
		}
		t.Cleanup(srv.Close)
		srvs[i] = srv
		addrs[i] = srv.Addr()
	}
	v1 := memView(1, servers, addrs)
	for i, st := range stores {
		if !st.SetView(v1) {
			t.Fatalf("server %d rejected v1", i)
		}
	}

	log := &trace.Log{}
	cl, err := tcp.DialPipelined(nil, v1.System(), tcp.WithView(v1),
		tcp.WithTrace(log), tcp.WithOpTimeout(100*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	stop := make(chan struct{})
	loadErr := make(chan error, 1)
	go func() { loadErr <- memWriterLoad(cl, regs, stop) }()

	// Let batched load reach steady state, then land the view change under
	// it: some in-flight batches were stamped with epoch 1 and meet servers
	// already on epoch 2, so their rejects coalesce with epoch-2 replies.
	time.Sleep(100 * time.Millisecond)
	v2 := memView(2, servers, addrs)
	for i, st := range stores {
		if !st.SetView(v2) {
			t.Fatalf("server %d rejected v2", i)
		}
	}
	waitEpoch(t, "writer", 2, cl.Pipeline().Epoch)
	time.Sleep(100 * time.Millisecond) // keep load flowing on the new epoch
	close(stop)
	if err := <-loadErr; err != nil {
		t.Errorf("load across the view change: %v", err)
	}

	var stale int64
	for _, st := range stores {
		_, _, s := st.ViewStats()
		stale += s
	}
	if stale == 0 {
		t.Error("no stale-epoch rejects recorded — the view change never landed mid-stream")
	}
	memCheckTrace(t, log.Ops())
}
