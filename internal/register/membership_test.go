package register_test

// Membership conformance: epoch-based dynamic membership exercised on both
// runtimes. Three properties are pinned across transports:
//
//   - Rolling restart: cycling a crash/recover through every replica under
//     sustained pipelined load produces zero client-visible errors — the
//     deadline machinery re-picks around each downed server, and no epoch
//     machinery is even needed (the view does not change).
//   - Grow/shrink: a run that reconfigures mid-stream (5 → more → 5 servers,
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
// the given addresses for dialing transports (nil for the simulator).
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

// memWriterLoad runs single-writer load — ascending writes, each followed by
// an atomic read-back — until stop closes, reporting the first error.
func memWriterLoad(cl *tcp.Client, regs int, stop <-chan struct{}) error {
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
func memReaderLoad(cl *tcp.Client, regs int, stop <-chan struct{}) error {
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
	cl, err := tcp.Dial(addrs, quorum.NewMajority(rollServers),
		tcp.WithMonotone(), tcp.WithTrace(log),
		tcp.WithOpTimeout(100*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Pipelined load runs while each server in turn goes down for ~100ms
	// and comes back; the client must never surface an error.
	stop := make(chan struct{})
	loadErr := make(chan error, 1)
	go func() { loadErr <- memWriterLoad(cl, rollRegs, stop) }()
	for i := 0; i < rollServers; i++ {
		stores[i].Crash()
		time.Sleep(100 * time.Millisecond)
		stores[i].Recover()
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
// client re-picks on its (virtual) deadlines while the churn node cycles
// every store through a crash.
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
	self := msg.NodeID(rollServers)
	node := addSimScript(s, self, register.MustEngine(register.Settings{Monotone: true}, 1,
		quorum.NewMajority(rollServers), rng.Derive(43, "membership.roll.sim")), script,
		// Unlimited retries: a rolling restart must never exhaust a client.
		register.ApplyPipeline(register.Settings{OpTimeout: 15 * time.Millisecond, Trace: log, Proc: self}))
	s.Run()
	if node.err != nil {
		t.Fatalf("sim client saw an error during the rolling restart: %v", node.err)
	}
	if why := node.stalled(); why != "" {
		t.Fatalf("sim client %s", why)
	}
	ops := log.Ops()
	memCheckTrace(t, ops)
	if err := trace.CheckMonotone(ops); err != nil {
		t.Errorf("[R4]: %v", err)
	}
}

// ---------------------------------------------------------------------------
// Grow/shrink: three epochs mid-stream, with the trace checked across all of
// them. The sim leg runs the full 5 -> 34 -> 5 of the roadmap claim on
// virtual time; the TCP leg keeps the socket count civil (5 -> 7 -> 5) and
// adds the real state transfer (tcp.JoinQuorum), following the
// reconfiguration discipline: joiners — and, when shrinking, the survivors —
// merge a read quorum of the outgoing view before the next view activates.

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
	writer, err := tcp.Dial(nil, v1.System(), tcp.WithView(v1),
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
	waitEpoch(t, "writer grow", 2, writer.Epoch)
	waitEpoch(t, "reader grow", 2, reader.Epoch)
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
	waitEpoch(t, "writer shrink", 3, writer.Epoch)
	waitEpoch(t, "reader shrink", 3, reader.Epoch)
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
// virtual time: 5 -> grown -> 5 over three epochs, a single writer and an
// atomic reader riding through both switches on stale-epoch rejects alone.
// The 34-server row is the paper's largest system; on virtual time it is as
// cheap as the small one.
func TestMembershipGrowShrinkSim(t *testing.T) {
	for _, grown := range []int{9, 34} {
		t.Run(fmt.Sprintf("5-%d-5", grown), func(t *testing.T) { memGrowShrinkSim(t, grown) })
	}
}

func memGrowShrinkSim(t *testing.T, grown int) {
	const base, regs = 5, 3
	s := sim.New(53, sim.DistDelay{Dist: rng.Exponential{MeanD: time.Millisecond}})
	stores := make([]*replica.Store, grown)
	for srv := 0; srv < grown; srv++ {
		// All nodes exist in the simulated network from the start; membership
		// is what brings the last grown-base into (and back out of) service.
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
	var adopts metrics.TransportCounters
	newNode := func(pi int, script []confStep) *simScript {
		self := msg.NodeID(grown + pi)
		return addSimScript(s, self, register.MustEngine(register.Settings{View: &v1}, int32(pi+1), v1.System(),
			rng.Derive(59, fmt.Sprintf("membership.grow.sim.%d", pi))), script,
			register.ApplyPipeline(register.Settings{OpTimeout: 15 * time.Millisecond, Trace: log, Proc: self,
				Counters: &adopts}))
	}
	var wscript []confStep
	for i := 1; i <= 80; i++ {
		wscript = append(wscript,
			confStep{kind: 'w', reg: msg.RegisterID(i % regs), val: float64(i)},
			confStep{kind: 'a', reg: msg.RegisterID(i % regs)})
	}
	writer := newNode(0, wscript)
	reader := newNode(1, repeatSteps('a', 0, 120))
	s.Run()

	for pi, n := range []*simScript{writer, reader} {
		if n.err != nil {
			t.Fatalf("sim proc %d saw an error across the reconfiguration: %v", pi, n.err)
		}
		if why := n.stalled(); why != "" {
			t.Fatalf("sim proc %d %s (epoch %d)", pi, why, n.pl.Epoch())
		}
	}
	if got := adopts.ViewAdopts.Value(); got < 2 {
		t.Fatalf("the clients adopted %d views, want >= 2: the switches cannot both have happened mid-stream", got)
	}
	memCheckTrace(t, log.Ops())
	for _, pi := range []*simScript{writer, reader} {
		if e := pi.pl.Epoch(); e != 3 {
			t.Errorf("a client finished on epoch %d, want 3", e)
		}
	}
	// The clients can only have learned the new epochs through stale-epoch
	// rejects, so some member must have issued one.
	var stale int64
	for _, st := range stores {
		_, _, s := st.ViewStats()
		stale += s
	}
	if stale == 0 {
		t.Error("no server ever issued a stale-epoch reject; the clients cannot have migrated lazily")
	}
	if joins, drains, _ := stores[0].ViewStats(); joins < int64(grown) || drains < int64(grown-base) {
		t.Errorf("server 0 ViewStats = %d joins/%d drains, want >= %d/%d", joins, drains, grown, grown-base)
	}
}

// ---------------------------------------------------------------------------
// Crash-join race: a server crashes, a replacement joins by state transfer
// from the surviving read quorum, the view moves on without the crashed
// server — all under load, with zero client-visible errors and nothing lost.

func TestMembershipCrashJoinRace(t *testing.T) {
	const base, regs = 5, 3
	initial := confInitial(regs)
	addrs := make([]string, base)
	stores := make([]*replica.Store, base)
	for i := range stores {
		stores[i] = replica.New(msg.NodeID(i), initial)
		srv, err := tcp.Listen(stores[i], "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen server %d: %v", i, err)
		}
		t.Cleanup(srv.Close)
		addrs[i] = srv.Addr()
	}
	v1 := memView(1, base, addrs)
	for _, st := range stores {
		st.SetView(v1)
	}
	log := &trace.Log{}
	cl, err := tcp.Dial(nil, v1.System(), tcp.WithView(v1), tcp.WithTrace(log),
		tcp.WithOpTimeout(100*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	stop := make(chan struct{})
	loadErr := make(chan error, 1)
	go func() { loadErr <- memWriterLoad(cl, regs, stop) }()
	time.Sleep(50 * time.Millisecond)

	// Server 0 dies. While it is down, a replacement joins by merging the
	// surviving read quorum (the crashed member's pull fails and is skipped,
	// like any silent server) and a view replaces the dead member with the
	// joiner.
	stores[0].Crash()
	joiner := replica.New(msg.NodeID(base), nil)
	if err := tcp.JoinQuorum(joiner, v1, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	srv, err := tcp.Listen(joiner, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	v2 := quorum.View{Epoch: 2, Members: []int32{int32(base), 1, 2, 3, 4},
		Addrs: append([]string{srv.Addr()}, addrs[1:]...)}
	for _, st := range append(stores[1:], joiner) {
		st.SetView(v2)
	}
	waitEpoch(t, "crash-join", 2, cl.Epoch)
	time.Sleep(150 * time.Millisecond)

	close(stop)
	if err := <-loadErr; err != nil {
		t.Fatalf("client saw an error across the crash-join: %v", err)
	}
	memCheckTrace(t, log.Ops())
	// Monotone is not configured on this client; CheckMonotone still must
	// not fail on a single-writer trace.
	if err := trace.CheckMonotone(log.Ops()); err != nil {
		t.Errorf("[R4]: %v", err)
	}
	// The late recovery is harmless: the recovered server is outside the
	// view and clients no longer address it.
	stores[0].Recover()
	if got, err := cl.ReadAtomic(0); err != nil || got.Val == nil {
		t.Fatalf("read after recovery: %v (val %v)", err, got.Val)
	}
	if joins, _, _ := joiner.ViewStats(); joins == 0 {
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
	cl, err := tcp.Dial(nil, v1.System(), tcp.WithView(v1),
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
	waitEpoch(t, "writer", 2, cl.Epoch)
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
