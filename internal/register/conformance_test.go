package register_test

// Cross-transport conformance suite: one table of register-semantics
// scenarios executed against all three runtimes — the goroutine cluster, a
// loopback TCP cluster, and the discrete-event simulator. Every runtime is a
// thin adapter over the same transport-agnostic client stack, so the
// observable properties ([R2] reads-from, [R4] monotonicity, ABD atomicity,
// retry-budget exhaustion, pipelined well-formedness) must hold identically
// on each. A scenario that passes on one transport and fails on another is a
// seam bug in that adapter, not a protocol bug.

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"probquorum/internal/cluster"
	"probquorum/internal/metrics"
	"probquorum/internal/msg"
	"probquorum/internal/obs"
	"probquorum/internal/quorum"
	"probquorum/internal/register"
	"probquorum/internal/replica"
	"probquorum/internal/rng"
	"probquorum/internal/sim"
	"probquorum/internal/trace"
	"probquorum/internal/transport"
	"probquorum/internal/transport/tcp"
)

// confStep is one scripted client operation: 'r' read, 'a' atomic read,
// 'w' write.
type confStep struct {
	kind byte
	reg  msg.RegisterID
	val  msg.Value
}

// confResult is what a harness hands back to the scenario's check function.
type confResult struct {
	ops        []trace.Op
	cacheHits  int64
	fastReads  int64 // atomic reads that elided their write-back (engine count)
	writeBacks int64 // write-back rounds actually run (observer laps; op count on sim)
	gaugeMax   int64
	errs       []error // one slot per script: first operation error, or nil
	// Fault-path accounting of the pipelined crash rows: members replaced
	// within an attempt, deadlines that spent retry budget, and whether the
	// harness's transport reports a crashed server (an error event) or
	// leaves it silent.
	topUps, retries int64
	signalsCrash    bool
	repairs         int64 // repair messages the engine issued
}

// confScenario is one row of the conformance table. Serial scenarios carry
// one script per client process; the pipelined scenario instead runs the
// fixed async write-then-read flow of runPipelinedFlow.
type confScenario struct {
	name       string
	servers    int
	regs       int
	sys        func(n int) quorum.System
	monotone   bool
	crashAll   bool          // crash every replica before the scripts run
	crashOne   bool          // crash replica 0 before the scripts run
	timeout    time.Duration // per-attempt deadline (0 = strict mode)
	retries    int           // attempt budget passed with the deadline
	pipelined  bool
	atomicFlow bool // pipelined flow appends an all-in-flight atomic-read round
	// Engine variants of the pipelined flow. masked reads with b = 1 against
	// replica 0, which holds a fabricated tag with an enormous timestamp for
	// every register (a Byzantine fabricator); repair pushes each read's
	// result back to stale members; multiWriter writes through the
	// multi-writer write (a read round, then a tag-carrying write round).
	// The tcp adapter has no masking or read-repair option, so those two
	// variants run on the cluster and sim harnesses here and over the TCP
	// transport in the tcp package's TestEngineVariantsOverTCP.
	masked, repair, multiWriter bool
	scripts                     [][]confStep
	check                       func(t *testing.T, r confResult)
}

// fabricated is the tag replica 0 holds for every register in the masked
// rows: newer than anything a client writes, and never written by one.
var fabricated = msg.Tagged{TS: msg.Timestamp{Seq: 1 << 40, Writer: 99}, Val: "fabricated"}

// plantFabricated makes st answer every register of the flow with
// fabricated.
func plantFabricated(st *replica.Store, regs int) {
	for r := 0; r < regs; r++ {
		st.Apply(msg.WriteReq{Reg: msg.RegisterID(r), Op: 1, Tag: fabricated})
	}
}

// engineOnlyVariant reports whether the row needs an engine variant the tcp
// adapter exposes no option for.
func (sc confScenario) engineOnlyVariant() bool { return sc.masked || sc.repair }

func confMajority(n int) quorum.System { return quorum.NewMajority(n) }

func confInitial(regs int) map[msg.RegisterID]msg.Value {
	m := make(map[msg.RegisterID]msg.Value, regs)
	for r := 0; r < regs; r++ {
		m[msg.RegisterID(r)] = 0.0
	}
	return m
}

func repeatSteps(kind byte, reg msg.RegisterID, n int) []confStep {
	steps := make([]confStep, n)
	for i := range steps {
		steps[i] = confStep{kind: kind, reg: reg}
	}
	return steps
}

// writeReadSteps interleaves n writes of ascending values with a read after
// each — the writer's half of the regular-register scenarios.
func writeReadSteps(reg msg.RegisterID, n int) []confStep {
	var steps []confStep
	for i := 1; i <= n; i++ {
		steps = append(steps,
			confStep{kind: 'w', reg: reg, val: float64(i)},
			confStep{kind: 'r', reg: reg})
	}
	return steps
}

func noErrs(t *testing.T, r confResult) {
	t.Helper()
	for pi, err := range r.errs {
		if err != nil {
			t.Fatalf("script %d failed: %v", pi, err)
		}
	}
}

var confScenarios = []confScenario{
	{
		// [R2]/[R4]: a writer and an independent reader over strict
		// majorities with monotone engines; the combined trace must be
		// well-formed, every read must return a written-or-initial value,
		// and each process's reads must be tag-monotone.
		name:     "serial-regular",
		servers:  5,
		regs:     1,
		sys:      confMajority,
		monotone: true,
		scripts: [][]confStep{
			writeReadSteps(0, 6),
			repeatSteps('r', 0, 12),
		},
		check: func(t *testing.T, r confResult) {
			noErrs(t, r)
			if err := trace.CheckWellFormed(r.ops); err != nil {
				t.Fatal(err)
			}
			if err := trace.CheckReadsFrom(r.ops); err != nil {
				t.Fatal(err)
			}
			if err := trace.CheckMonotone(r.ops); err != nil {
				t.Fatal(err)
			}
		},
	},
	{
		// Monotone cache: with k=1 quorums over 8 servers, most reads draw a
		// quorum that missed the write; the client's own-write cache must win
		// those races (CacheHits > 0) while keeping reads monotone.
		name:     "monotone-cache",
		servers:  8,
		regs:     1,
		sys:      func(n int) quorum.System { return quorum.NewProbabilistic(n, 1) },
		monotone: true,
		scripts: [][]confStep{
			append([]confStep{{kind: 'w', reg: 0, val: 7.0}}, repeatSteps('r', 0, 40)...),
		},
		check: func(t *testing.T, r confResult) {
			noErrs(t, r)
			if r.cacheHits == 0 {
				t.Fatal("40 k=1 reads after an own write produced no cache hits")
			}
			if err := trace.CheckMonotone(r.ops); err != nil {
				t.Fatal(err)
			}
		},
	},
	{
		// ABD: a writer races two ReadAtomic readers over strict majorities;
		// the combined trace must be atomic (no new-old inversions).
		name:    "atomic-read",
		servers: 5,
		regs:    1,
		sys:     confMajority,
		scripts: [][]confStep{
			func() []confStep {
				var steps []confStep
				for i := 1; i <= 8; i++ {
					steps = append(steps, confStep{kind: 'w', reg: 0, val: float64(i)})
				}
				return steps
			}(),
			repeatSteps('a', 0, 10),
			repeatSteps('a', 0, 10),
		},
		check: func(t *testing.T, r confResult) {
			noErrs(t, r)
			if err := trace.CheckWellFormed(r.ops); err != nil {
				t.Fatal(err)
			}
			if err := trace.CheckReadsFrom(r.ops); err != nil {
				t.Fatal(err)
			}
			if err := trace.CheckAtomic(r.ops); err != nil {
				t.Fatalf("ABD reads violated atomicity: %v", err)
			}
		},
	},
	{
		// Fast path: on a contention-free schedule over all-server quorums,
		// every atomic read after the first write sees a unanimous quorum, so
		// each one must complete in a single round trip — FastReads accounts
		// for every atomic read and not one write-back round runs — while the
		// trace stays atomic.
		name:    "atomic-fast-path",
		servers: 4,
		regs:    1,
		sys:     func(n int) quorum.System { return quorum.NewAll(n) },
		scripts: [][]confStep{
			append([]confStep{{kind: 'w', reg: 0, val: 3.0}}, repeatSteps('a', 0, 12)...),
		},
		check: func(t *testing.T, r confResult) {
			noErrs(t, r)
			if err := trace.CheckAtomic(r.ops); err != nil {
				t.Fatal(err)
			}
			if r.fastReads != 12 {
				t.Fatalf("FastReads = %d, want 12: every unanimous atomic read must elide its write-back", r.fastReads)
			}
			if r.writeBacks != 0 {
				t.Fatalf("WriteBack laps = %d, want 0 on a contention-free schedule", r.writeBacks)
			}
		},
	},
	{
		// Availability floor: with every replica crashed, a read must burn
		// its whole attempt budget and surface ErrQuorumUnavailable — the
		// same typed error on every transport.
		name:     "retry-exhaustion",
		servers:  3,
		regs:     1,
		sys:      confMajority,
		crashAll: true,
		timeout:  10 * time.Millisecond,
		retries:  2,
		scripts:  [][]confStep{repeatSteps('r', 0, 1)},
		check: func(t *testing.T, r confResult) {
			if r.errs[0] == nil {
				t.Fatal("read against an all-crashed cluster succeeded")
			}
			if !errors.Is(r.errs[0], register.ErrQuorumUnavailable) {
				t.Fatalf("want ErrQuorumUnavailable, got %v", r.errs[0])
			}
		},
	},
	{
		// Pipelined: six same-client writes in flight at once, then six
		// reads. The trace must be pipelined-well-formed, reads must return
		// the written values, and the in-flight gauge must prove genuine
		// overlap.
		name:      "pipelined",
		servers:   5,
		regs:      6,
		sys:       confMajority,
		pipelined: true,
		check: func(t *testing.T, r confResult) {
			noErrs(t, r)
			if err := trace.CheckPipelinedWellFormed(r.ops); err != nil {
				t.Fatal(err)
			}
			if err := trace.CheckReadsFrom(r.ops); err != nil {
				t.Fatal(err)
			}
			if r.gaugeMax < 2 {
				t.Fatalf("in-flight high-watermark = %d, want >= 2 (operations never overlapped)", r.gaugeMax)
			}
		},
	},
	{
		// Pipelined atomic reads: the write round over all-server quorums
		// leaves every replica with the same tag per register, so the round
		// of six concurrently in-flight atomic reads must ride the fast path
		// on all of them — no write-back rounds — while the trace stays
		// pipelined-well-formed.
		name:       "pipelined-atomic",
		servers:    4,
		regs:       6,
		sys:        func(n int) quorum.System { return quorum.NewAll(n) },
		pipelined:  true,
		atomicFlow: true,
		check: func(t *testing.T, r confResult) {
			noErrs(t, r)
			if err := trace.CheckPipelinedWellFormed(r.ops); err != nil {
				t.Fatal(err)
			}
			if err := trace.CheckReadsFrom(r.ops); err != nil {
				t.Fatal(err)
			}
			if r.gaugeMax < 2 {
				t.Fatalf("in-flight high-watermark = %d, want >= 2 (operations never overlapped)", r.gaugeMax)
			}
			if r.fastReads != 6 {
				t.Fatalf("FastReads = %d, want 6: every pipelined unanimous atomic read must elide its write-back", r.fastReads)
			}
			if r.writeBacks != 0 {
				t.Fatalf("WriteBack laps = %d, want 0 on a contention-free schedule", r.writeBacks)
			}
		},
	},
	{
		// Fault-aware fan-out over strict majorities: with one of five
		// replicas crashed, every operation whose quorum includes it replaces
		// that member within the attempt instead of restarting on a fresh
		// quorum, and the trace stays well-formed, reads-from-correct and
		// atomic. Where the transport signals the crash no deadline is
		// waited out; where the server is just silent the first deadline
		// suspects it and the rest of the flow picks around it.
		name:       "crash-topup",
		servers:    5,
		regs:       6,
		sys:        confMajority,
		crashOne:   true,
		timeout:    40 * time.Millisecond,
		pipelined:  true,
		atomicFlow: true,
		check:      checkCrashTopUp,
	},
	{
		// The same over the paper's k-of-n system (k = 5 of 8, so that the
		// flow's value checks hold: any two quorums intersect).
		name:      "crash-topup-prob",
		servers:   8,
		regs:      6,
		sys:       func(n int) quorum.System { return quorum.NewProbabilistic(n, 5) },
		crashOne:  true,
		timeout:   40 * time.Millisecond,
		pipelined: true,
		check:     checkCrashTopUp,
	},
	{
		// b-masking on the pipelined engine: replica 0 fabricates a tag far
		// newer than any write. With k = 4 of 5 every read quorum meets
		// every write quorum's three honest members in at least two, so a
		// masked read always finds b+1 = 2 votes for the written value and
		// never accepts the fabrication's one — the flow's value checks and
		// the reads-from check both catch a leak.
		name:      "pipelined-masking",
		servers:   5,
		regs:      6,
		sys:       func(n int) quorum.System { return quorum.NewProbabilistic(n, 4) },
		pipelined: true,
		masked:    true,
		check:     checkPipelinedFlow,
	},
	{
		// Read repair on the pipelined engine: reads over majorities push
		// the written value back to the members of their quorum that missed
		// the write, fire-and-forget, while the trace stays correct.
		name:      "pipelined-repair",
		servers:   5,
		regs:      6,
		sys:       confMajority,
		pipelined: true,
		repair:    true,
		check: func(t *testing.T, r confResult) {
			checkPipelinedFlow(t, r)
			if r.repairs == 0 {
				t.Fatal("no repair message was issued: every read quorum held the write")
			}
		},
	},
	{
		// Multi-writer writes on the pipelined engine: each write reads the
		// register's current timestamp and installs its value one past it,
		// every register's in flight at once; the reads that follow must
		// return them.
		name:        "pipelined-write-multi",
		servers:     5,
		regs:        6,
		sys:         confMajority,
		pipelined:   true,
		multiWriter: true,
		check:       checkPipelinedFlow,
	},
}

// checkPipelinedFlow is the pipelined rows' common verdict: no errors, a
// pipelined-well-formed trace, and reads that return written values.
func checkPipelinedFlow(t *testing.T, r confResult) {
	noErrs(t, r)
	if err := trace.CheckPipelinedWellFormed(r.ops); err != nil {
		t.Fatal(err)
	}
	if err := trace.CheckReadsFrom(r.ops); err != nil {
		t.Fatal(err)
	}
}

func checkCrashTopUp(t *testing.T, r confResult) {
	noErrs(t, r)
	if err := trace.CheckPipelinedWellFormed(r.ops); err != nil {
		t.Fatal(err)
	}
	if err := trace.CheckReadsFrom(r.ops); err != nil {
		t.Fatal(err)
	}
	if err := trace.CheckMonotone(r.ops); err != nil {
		t.Fatal(err)
	}
	if err := trace.CheckAtomic(r.ops); err != nil {
		t.Fatal(err)
	}
	if r.topUps == 0 {
		t.Fatal("no member was replaced: the crashed replica was never in a quorum, or attempts restarted instead")
	}
	if r.signalsCrash && r.retries != 0 {
		t.Fatalf("Retries = %d on a transport that signals the crash: a top-up on error spends no deadline", r.retries)
	}
	if !r.signalsCrash && r.retries > int64(len(r.ops)) {
		t.Fatalf("Retries = %d for %d operations: the silent replica kept being picked", r.retries, len(r.ops))
	}
}

// confClient is the operation surface the script runner needs; the cluster
// and TCP adapter clients both satisfy it directly.
type confClient interface {
	Read(msg.RegisterID) (msg.Tagged, error)
	ReadAtomic(msg.RegisterID) (msg.Tagged, error)
	Write(msg.RegisterID, msg.Value) error
}

func runConfScript(cl confClient, script []confStep) error {
	for _, st := range script {
		var err error
		switch st.kind {
		case 'r':
			_, err = cl.Read(st.reg)
		case 'a':
			_, err = cl.ReadAtomic(st.reg)
		default:
			err = cl.Write(st.reg, st.val)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// asyncClient is the pipelined surface shared by cluster.PipeClient and
// tcp.PipelinedClient.
type asyncClient interface {
	ReadAsync(msg.RegisterID) *register.PendingOp
	ReadAtomicAsync(msg.RegisterID) *register.PendingOp
	WriteAsync(msg.RegisterID, msg.Value) *register.PendingOp
	Pipeline() *register.Pipeline
}

// runPipelinedFlow writes regs distinct registers with all writes in flight
// at once, then reads them all back the same way, checking the values.
func runPipelinedFlow(pc asyncClient, regs int) error {
	return runPipelinedFlowOf(pc, regs, false)
}

// runPipelinedFlowOf is runPipelinedFlow, its writes multi-writer writes
// when multi is set.
func runPipelinedFlowOf(pc asyncClient, regs int, multi bool) error {
	pend := make([]*register.PendingOp, 0, regs)
	for r := 0; r < regs; r++ {
		if multi {
			pend = append(pend, pc.Pipeline().WriteMultiAsyncFunc(msg.RegisterID(r), float64(r+1), nil))
		} else {
			pend = append(pend, pc.WriteAsync(msg.RegisterID(r), float64(r+1)))
		}
	}
	for _, op := range pend {
		if _, err := op.Wait(); err != nil {
			return err
		}
	}
	pend = pend[:0]
	for r := 0; r < regs; r++ {
		pend = append(pend, pc.ReadAsync(msg.RegisterID(r)))
	}
	for i, op := range pend {
		tag, err := op.Wait()
		if err != nil {
			return err
		}
		if tag.Val != float64(i+1) {
			return fmt.Errorf("pipelined read reg %d = %v, want %v", i, tag.Val, float64(i+1))
		}
	}
	return nil
}

// runPipelinedAtomicFlow extends runPipelinedFlow with a third round: an
// atomic read of every register, all in flight at once, checking the values
// the write round installed.
func runPipelinedAtomicFlow(pc asyncClient, regs int) error {
	if err := runPipelinedFlow(pc, regs); err != nil {
		return err
	}
	pend := make([]*register.PendingOp, 0, regs)
	for r := 0; r < regs; r++ {
		pend = append(pend, pc.ReadAtomicAsync(msg.RegisterID(r)))
	}
	for i, op := range pend {
		tag, err := op.Wait()
		if err != nil {
			return err
		}
		if tag.Val != float64(i+1) {
			return fmt.Errorf("pipelined atomic read reg %d = %v, want %v", i, tag.Val, float64(i+1))
		}
	}
	return nil
}

// runConfScripts runs one goroutine per script against its client and
// collects each script's first error.
func runConfScripts(clients []confClient, scripts [][]confStep) []error {
	errs := make([]error, len(scripts))
	var wg sync.WaitGroup
	for pi := range scripts {
		wg.Add(1)
		go func(pi int) {
			defer wg.Done()
			errs[pi] = runConfScript(clients[pi], scripts[pi])
		}(pi)
	}
	wg.Wait()
	return errs
}

func runClusterScenario(t *testing.T, sc confScenario) confResult {
	t.Helper()
	c, err := cluster.New(cluster.Config{Servers: sc.servers, Initial: confInitial(sc.regs), Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	log := &trace.Log{}
	sys := sc.sys(sc.servers)
	if sc.crashAll {
		for i := 0; i < sc.servers; i++ {
			c.Server(i).Crash()
		}
	}
	if sc.crashOne {
		c.Server(0).Crash()
	}
	if sc.masked {
		plantFabricated(c.Server(0), sc.regs)
	}
	pobs := new(register.Observer) // WriteBack laps pin the fast-path rows
	if sc.pipelined {
		var g metrics.Gauge
		var tc metrics.TransportCounters
		opts := []cluster.ClientOption{cluster.WithTrace(log), cluster.WithInFlightGauge(&g), cluster.WithObserver(pobs)}
		if sc.crashOne {
			opts = append(opts, cluster.WithOpTimeout(sc.timeout), cluster.WithRetries(sc.retries),
				cluster.WithTransportCounters(&tc))
		}
		if sc.masked {
			opts = append(opts, cluster.WithMasking(1))
		}
		if sc.repair {
			opts = append(opts, cluster.WithReadRepair())
		}
		pc, err := c.NewPipeline(sys, opts...)
		if err != nil {
			t.Fatal(err)
		}
		defer pc.Close()
		var ferr error
		if sc.atomicFlow {
			ferr = runPipelinedAtomicFlow(pc, sc.regs)
		} else {
			ferr = runPipelinedFlowOf(pc, sc.regs, sc.multiWriter)
		}
		return confResult{ops: log.Ops(), fastReads: pc.Engine().FastReads(),
			writeBacks: pobs.WriteBack.Count(), gaugeMax: g.Max(), errs: []error{ferr},
			topUps: tc.TopUps.Value(), retries: pc.Pipeline().Retries(), repairs: pc.Engine().Repairs()}
	}
	clients := make([]confClient, len(sc.scripts))
	engines := make([]*register.Engine, len(sc.scripts))
	for pi := range sc.scripts {
		opts := []cluster.ClientOption{cluster.WithTrace(log), cluster.WithObserver(pobs)}
		if sc.monotone {
			opts = append(opts, cluster.WithMonotone())
		}
		if sc.timeout > 0 {
			opts = append(opts, cluster.WithOpTimeout(sc.timeout), cluster.WithRetries(sc.retries))
		}
		cl, err := c.NewClient(sys, opts...)
		if err != nil {
			t.Fatal(err)
		}
		clients[pi] = cl
		engines[pi] = cl.Engine()
	}
	errs := runConfScripts(clients, sc.scripts)
	var hits, fast int64
	for _, e := range engines {
		hits += e.CacheHits()
		fast += e.FastReads()
	}
	return confResult{ops: log.Ops(), cacheHits: hits, fastReads: fast,
		writeBacks: pobs.WriteBack.Count(), errs: errs}
}

func runTCPScenario(t *testing.T, sc confScenario) confResult {
	t.Helper()
	initial := confInitial(sc.regs)
	addrs := make([]string, sc.servers)
	stores := make([]*replica.Store, sc.servers)
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
	sys := sc.sys(sc.servers)
	pobs := new(register.Observer) // WriteBack laps pin the fast-path rows
	if sc.pipelined {
		var g metrics.Gauge
		var tc metrics.TransportCounters
		opts := []tcp.ClientOption{tcp.WithTrace(log), tcp.WithInFlightGauge(&g), tcp.WithObserver(pobs)}
		if sc.crashOne {
			opts = append(opts, tcp.WithOpTimeout(sc.timeout), tcp.WithRetries(sc.retries),
				tcp.WithTransportCounters(&tc))
		}
		pc, err := tcp.DialPipelined(addrs, sys, opts...)
		if err != nil {
			t.Fatal(err)
		}
		defer pc.Close()
		if sc.crashOne {
			// After dialing, like crashAll below: the crashed store closes
			// the connection on its next request, which the client's reader
			// reports as a per-server error.
			stores[0].Crash()
		}
		var ferr error
		if sc.atomicFlow {
			ferr = runPipelinedAtomicFlow(pc, sc.regs)
		} else {
			ferr = runPipelinedFlowOf(pc, sc.regs, sc.multiWriter)
		}
		return confResult{ops: log.Ops(), fastReads: pc.Engine().FastReads(),
			writeBacks: pobs.WriteBack.Count(), gaugeMax: g.Max(), errs: []error{ferr},
			topUps: tc.TopUps.Value(), retries: pc.Pipeline().Retries(), signalsCrash: true}
	}
	clients := make([]confClient, len(sc.scripts))
	engines := make([]*register.Engine, len(sc.scripts))
	for pi := range sc.scripts {
		opts := []tcp.ClientOption{
			tcp.WithTrace(log),
			tcp.WithWriter(int32(pi + 1)),
			tcp.WithSeed(uint64(pi + 1)),
			tcp.WithObserver(pobs),
		}
		if sc.monotone {
			opts = append(opts, tcp.WithMonotone())
		}
		if sc.timeout > 0 {
			opts = append(opts, tcp.WithOpTimeout(sc.timeout), tcp.WithRetries(sc.retries))
		}
		cl, err := tcp.Dial(addrs, sys, opts...)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		clients[pi] = cl
		engines[pi] = cl.Engine()
	}
	// Crash after dialing: the eager dial needs live listeners, and a
	// crashed store then closes connections on the next request — the same
	// observable silence the other transports inject.
	if sc.crashAll {
		for _, st := range stores {
			st.Crash()
		}
	}
	errs := runConfScripts(clients, sc.scripts)
	var hits, fast int64
	for _, e := range engines {
		hits += e.CacheHits()
		fast += e.FastReads()
	}
	return confResult{ops: log.Ops(), cacheHits: hits, fastReads: fast,
		writeBacks: pobs.WriteBack.Count(), errs: errs}
}

// confSimNode drives one script's register.Operations inside the simulator —
// the same state-machine pattern as the aco runner's procNode, reduced to a
// scripted operation list. Timers pace retries on virtual time; the attempt
// counter filters deadlines armed for superseded attempts.
type confSimNode struct {
	engine  *register.Engine
	script  []confStep
	self    msg.NodeID
	tr      *trace.Log
	timeout time.Duration
	budget  int

	idx      int
	cur      *register.Operation
	sends    []register.Send
	invoke   sim.Time
	wsHandle int
	attempt  uint64
	wbacks   int64 // atomic reads that ran the write-back round
	finished bool
	err      error
}

var _ sim.Handler = (*confSimNode)(nil)

func (n *confSimNode) Init(ctx *sim.Context) { n.next(ctx) }

func (n *confSimNode) next(ctx *sim.Context) {
	if n.idx >= len(n.script) {
		n.finished = true
		n.cur = nil
		return
	}
	st := n.script[n.idx]
	switch st.kind {
	case 'r':
		n.cur = n.engine.NewReadOp(st.reg, n.budget)
	case 'a':
		n.cur = n.engine.NewAtomicReadOp(st.reg, n.budget)
	default:
		n.cur = n.engine.NewWriteOp(st.reg, st.val, n.budget)
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

func (n *confSimNode) dispatch(ctx *sim.Context) {
	for _, sd := range n.sends {
		ctx.Send(msg.NodeID(sd.Server), sd.Req)
	}
	n.sends = n.sends[:0]
}

func (n *confSimNode) arm(ctx *sim.Context) {
	if n.timeout > 0 {
		n.attempt++
		ctx.After(n.timeout, 1, n.attempt)
	}
}

func (n *confSimNode) retry(ctx *sim.Context) {
	var err error
	if n.sends, err = n.cur.Retry(n.sends); err != nil {
		n.err = fmt.Errorf("sim proc %d: %s reg %d after %d attempts: %w",
			int(n.self), n.cur.Desc(), n.cur.Reg(), n.cur.Attempts(), err)
		n.cur = nil
		return
	}
	n.dispatch(ctx)
	n.arm(ctx)
}

func (n *confSimNode) Timer(ctx *sim.Context, _ int, payload any) {
	att, ok := payload.(uint64)
	if !ok || att != n.attempt {
		return // a newer attempt superseded this deadline
	}
	if n.cur == nil || n.cur.Done() {
		return
	}
	n.retry(ctx)
}

func (n *confSimNode) Recv(ctx *sim.Context, from msg.NodeID, m any) {
	if n.cur == nil || n.cur.Done() {
		return // stale reply from a completed operation
	}
	n.sends = n.cur.Deliver(int(from), m, n.sends)
	n.dispatch(ctx)
	if n.cur.Rejected() {
		n.retry(ctx)
		return
	}
	if !n.cur.Done() {
		return
	}
	switch st := n.script[n.idx]; {
	case st.kind == 'w':
		if n.tr != nil {
			n.tr.Complete(n.wsHandle, int64(ctx.Now()))
		}
	default:
		if st.kind == 'a' && !n.cur.FastPath() {
			n.wbacks++
		}
		if n.tr != nil {
			n.tr.Record(trace.Op{
				Kind: trace.KindRead, Proc: n.self, Reg: n.cur.Reg(),
				Invoke: int64(n.invoke), Respond: int64(ctx.Now()), Tag: n.cur.Result(),
			})
		}
	}
	n.idx++
	n.next(ctx)
}

// confPipeNode drives the pipelined flow inside the simulator. Completion
// callbacks run synchronously inside Deliver, so ctx is refreshed on every
// entry point before the pipeline can emit sends through it.
type confPipeNode struct {
	pl      *register.Pipeline
	tr      *simTransport
	ctx     *sim.Context
	regs    int
	atomic  bool // append the all-in-flight atomic-read round
	multi   bool // write with multi-writer writes
	phase   int  // 0: writes in flight; 1: reads in flight; 2: atomic reads
	pending int
	done    bool
	err     error
}

func (n *confPipeNode) Init(ctx *sim.Context) {
	n.ctx = ctx
	n.pending = n.regs
	wrote := func(_ msg.Tagged, err error) { n.wrote(err) }
	for r := 0; r < n.regs; r++ {
		if n.multi {
			n.pl.WriteMultiAsyncFunc(msg.RegisterID(r), float64(r+1), wrote)
		} else {
			n.pl.WriteAsyncFunc(msg.RegisterID(r), float64(r+1), wrote)
		}
	}
}

func (n *confPipeNode) wrote(err error) {
	if err != nil && n.err == nil {
		n.err = err
	}
	n.pending--
	if n.pending > 0 || n.phase != 0 || n.err != nil {
		return
	}
	n.phase = 1
	n.pending = n.regs
	for r := 0; r < n.regs; r++ {
		r := r
		n.pl.ReadAsyncFunc(msg.RegisterID(r), func(tag msg.Tagged, err error) {
			n.read(r, tag, err)
		})
	}
}

func (n *confPipeNode) read(r int, tag msg.Tagged, err error) {
	if err != nil {
		if n.err == nil {
			n.err = err
		}
	} else if tag.Val != float64(r+1) && n.err == nil {
		n.err = fmt.Errorf("pipelined read reg %d = %v, want %v", r, tag.Val, float64(r+1))
	}
	n.pending--
	if n.pending > 0 || n.phase != 1 {
		return
	}
	if !n.atomic || n.err != nil {
		n.done = true
		return
	}
	n.phase = 2
	n.pending = n.regs
	for r := 0; r < n.regs; r++ {
		r := r
		n.pl.ReadAtomicAsyncFunc(msg.RegisterID(r), func(tag msg.Tagged, err error) {
			n.readAtomic(r, tag, err)
		})
	}
}

func (n *confPipeNode) readAtomic(r int, tag msg.Tagged, err error) {
	if err != nil {
		if n.err == nil {
			n.err = err
		}
	} else if tag.Val != float64(r+1) && n.err == nil {
		n.err = fmt.Errorf("pipelined atomic read reg %d = %v, want %v", r, tag.Val, float64(r+1))
	}
	n.pending--
	if n.pending == 0 && n.phase == 2 {
		n.done = true
	}
}

func (n *confPipeNode) Recv(ctx *sim.Context, from msg.NodeID, m any) {
	n.ctx = ctx
	n.pl.Deliver(int(from), m)
}

// Timer delivers a crashed server's connection reset (simTransport.Send).
func (n *confPipeNode) Timer(ctx *sim.Context, _ int, payload any) {
	n.ctx = ctx
	n.tr.sink(payload.(int), nil, errSimReset)
}

var errSimReset = errors.New("sim: connection reset by crashed server")

// simTransport carries a pipeline's requests over the simulator as a
// transport.Transport, so the pipelined rows run the same NewPipelineOver
// binding the socket and goroutine runtimes do. Replies reach the pipeline through
// confPipeNode.Recv. A request to a crashed server is lost, and — like a TCP
// peer whose connection the crashed store closes — the sender learns of it
// one network delay later as a per-server error.
type simTransport struct {
	node    *confPipeNode
	n       int
	crashed map[int]bool
	sink    transport.Sink
}

func (s *simTransport) N() int                   { return s.n }
func (s *simTransport) Bind(sink transport.Sink) { s.sink = sink }
func (s *simTransport) Close() error             { return nil }

func (s *simTransport) Send(server int, req any) error {
	s.node.ctx.Send(msg.NodeID(server), req)
	if s.crashed[server] {
		s.node.ctx.After(time.Millisecond, 0, server)
	}
	return nil
}

func runSimScenario(t *testing.T, sc confScenario) confResult {
	t.Helper()
	s := sim.New(13, sim.DistDelay{Dist: rng.Exponential{MeanD: time.Millisecond}})
	stores := make([]*replica.Store, sc.servers)
	for srv := 0; srv < sc.servers; srv++ {
		stores[srv] = replica.New(msg.NodeID(srv), confInitial(sc.regs))
		s.Add(msg.NodeID(srv), &replica.SimNode{Store: stores[srv]})
	}
	if sc.crashAll {
		for _, st := range stores {
			st.Crash()
		}
	}
	if sc.crashOne {
		stores[0].Crash()
	}
	if sc.masked {
		plantFabricated(stores[0], sc.regs)
	}
	log := &trace.Log{}
	sys := sc.sys(sc.servers)
	newEngine := func(pi int) *register.Engine {
		var eopts []register.Option
		if sc.monotone {
			eopts = append(eopts, register.Monotone())
		}
		if sc.masked {
			eopts = append(eopts, register.WithMasking(1))
		}
		if sc.repair {
			eopts = append(eopts, register.WithReadRepair())
		}
		return register.NewEngine(int32(pi+1), sys,
			rng.Derive(17, fmt.Sprintf("conf.sim.%d", pi)), eopts...)
	}
	if sc.pipelined {
		var g metrics.Gauge
		pobs := new(register.Observer)
		engine := newEngine(0)
		self := msg.NodeID(sc.servers)
		node := &confPipeNode{regs: sc.regs, atomic: sc.atomicFlow, multi: sc.multiWriter}
		var tc metrics.TransportCounters
		// No deadline: wall-clock timers have no meaning on virtual time,
		// and in the crash rows the error signal must be enough on its own.
		node.tr = &simTransport{node: node, n: sc.servers, crashed: map[int]bool{0: sc.crashOne}}
		node.pl = register.NewPipelineOver(engine, node.tr,
			register.PipeClock(func() int64 { return int64(node.ctx.Now()) }),
			register.PipeTrace(log, self),
			register.PipeGauge(&g),
			register.PipeObserver(pobs),
			register.PipeCounters(&tc))
		s.Add(self, node)
		s.Run()
		if node.err == nil && !node.done {
			t.Fatal("pipelined sim flow stalled before completing")
		}
		return confResult{ops: log.Ops(), fastReads: engine.FastReads(),
			writeBacks: pobs.WriteBack.Count(), gaugeMax: g.Max(), errs: []error{node.err},
			topUps: tc.TopUps.Value(), retries: node.pl.Retries(), signalsCrash: true,
			repairs: engine.Repairs()}
	}
	engines := make([]*register.Engine, len(sc.scripts))
	nodes := make([]*confSimNode, len(sc.scripts))
	for pi, script := range sc.scripts {
		engines[pi] = newEngine(pi)
		nodes[pi] = &confSimNode{
			engine:  engines[pi],
			script:  script,
			self:    msg.NodeID(sc.servers + pi),
			tr:      log,
			timeout: sc.timeout,
			budget:  sc.retries,
		}
		s.Add(nodes[pi].self, nodes[pi])
	}
	s.Run()
	errs := make([]error, len(nodes))
	var hits, fast, wbacks int64
	for pi, node := range nodes {
		if node.err == nil && !node.finished {
			t.Fatalf("sim script %d stalled at step %d", pi, node.idx)
		}
		errs[pi] = node.err
		hits += engines[pi].CacheHits()
		fast += engines[pi].FastReads()
		wbacks += node.wbacks
	}
	return confResult{ops: log.Ops(), cacheHits: hits, fastReads: fast,
		writeBacks: wbacks, errs: errs}
}

// TestConformance runs every scenario against every transport.
func TestConformance(t *testing.T) {
	harnesses := []struct {
		name string
		run  func(t *testing.T, sc confScenario) confResult
	}{
		{"cluster", runClusterScenario},
		{"tcp", runTCPScenario},
		{"sim", runSimScenario},
	}
	for _, sc := range confScenarios {
		sc := sc
		for _, h := range harnesses {
			h := h
			if h.name == "tcp" && sc.engineOnlyVariant() {
				continue // see confScenario.masked
			}
			t.Run(sc.name+"/"+h.name, func(t *testing.T) {
				t.Parallel()
				sc.check(t, h.run(t, sc))
			})
		}
	}
}

// TestTransportMessageCountersAlign pins the message-counting seam: the
// cluster and TCP transports instrument at the same layer, so an identical
// deterministic script over all-server quorums must report identical
// MsgsSent/MsgsRecv on both (batch frames count per element, not per frame).
func TestTransportMessageCountersAlign(t *testing.T) {
	script := []confStep{
		{kind: 'w', reg: 0, val: 1.0},
		{kind: 'r', reg: 0},
		{kind: 'w', reg: 0, val: 2.0},
		{kind: 'r', reg: 0},
		{kind: 'a', reg: 0},
	}
	const servers = 3

	var ctc metrics.TransportCounters
	c, err := cluster.New(cluster.Config{Servers: servers, Initial: confInitial(1), Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ccl, err := c.NewClient(quorum.NewAll(servers), cluster.WithTransportCounters(&ctc))
	if err != nil {
		t.Fatal(err)
	}
	if err := runConfScript(ccl, script); err != nil {
		t.Fatalf("cluster script: %v", err)
	}

	var ttc metrics.TransportCounters
	addrs := make([]string, servers)
	for i := range addrs {
		srv, err := tcp.Listen(replica.New(msg.NodeID(i), confInitial(1)), "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
		addrs[i] = srv.Addr()
	}
	tcl, err := tcp.Dial(addrs, quorum.NewAll(servers), tcp.WithTransportCounters(&ttc))
	if err != nil {
		t.Fatal(err)
	}
	defer tcl.Close()
	if err := runConfScript(tcl, script); err != nil {
		t.Fatalf("tcp script: %v", err)
	}

	csent, crecv := ctc.Messages()
	tsent, trecv := ttc.Messages()
	if csent == 0 || crecv == 0 {
		t.Fatalf("cluster counters empty: sent=%d recv=%d", csent, crecv)
	}
	if csent != tsent || crecv != trecv {
		t.Fatalf("message counts diverge: cluster sent=%d recv=%d, tcp sent=%d recv=%d",
			csent, crecv, tsent, trecv)
	}
}

// TestConformanceObservability attaches a full obs.Registry to a pipelined
// client on each real transport, scrapes it concurrently while the load
// runs (the race detector checks the snapshot locking), and then pins the
// pipelined phase accounting: Pick and QuorumWait telescope over exactly the
// operation's service window, so their sums must equal the Ops sum, and the
// Prometheus rendering must carry the expected metric families.
func TestConformanceObservability(t *testing.T) {
	const servers, regs, rounds = 5, 8, 25

	type pipeHarness struct {
		name string
		dial func(t *testing.T, counters *metrics.TransportCounters, observer *register.Observer, g *metrics.Gauge) asyncClient
	}
	harnesses := []pipeHarness{
		{"cluster", func(t *testing.T, counters *metrics.TransportCounters, observer *register.Observer, g *metrics.Gauge) asyncClient {
			c, err := cluster.New(cluster.Config{Servers: servers, Initial: confInitial(regs), Seed: 29})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(c.Close)
			pc, err := c.NewPipeline(confMajority(servers),
				cluster.WithTransportCounters(counters),
				cluster.WithObserver(observer),
				cluster.WithInFlightGauge(g))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(pc.Close)
			return pc
		}},
		{"tcp", func(t *testing.T, counters *metrics.TransportCounters, observer *register.Observer, g *metrics.Gauge) asyncClient {
			addrs := make([]string, servers)
			for i := range addrs {
				srv, err := tcp.Listen(replica.New(msg.NodeID(i), confInitial(regs)), "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(srv.Close)
				addrs[i] = srv.Addr()
			}
			pc, err := tcp.DialPipelined(addrs, confMajority(servers),
				tcp.WithTransportCounters(counters),
				tcp.WithObserver(observer),
				tcp.WithInFlightGauge(g))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(pc.Close)
			return pc
		}},
	}
	for _, h := range harnesses {
		h := h
		t.Run(h.name, func(t *testing.T) {
			t.Parallel()
			reg := obs.NewRegistry()
			counters := &metrics.TransportCounters{}
			counters.Register("client", reg)
			observer := new(register.Observer).Register("client", reg)
			var g metrics.Gauge
			g.Register("client.inflight", reg)
			pc := h.dial(t, counters, observer, &g)

			done := make(chan struct{})
			var scrapes int
			go func() {
				defer close(done)
				for i := 0; i < rounds; i++ {
					if err := runPipelinedFlow(pc, regs); err != nil {
						t.Errorf("round %d: %v", i, err)
						return
					}
				}
			}()
			for {
				select {
				case <-done:
				default:
					snap := reg.Snapshot()
					var b strings.Builder
					snap.WritePrometheus(&b)
					scrapes++
					continue
				}
				break
			}
			if scrapes == 0 {
				t.Fatal("no concurrent scrapes happened")
			}

			snap := reg.Snapshot()
			ops := snap.Latencies["client.ops"]
			if want := int64(rounds * regs * 2); ops.Count != want {
				t.Errorf("ops count = %d, want %d", ops.Count, want)
			}
			pick, wait := snap.Latencies["client.phase.pick"], snap.Latencies["client.phase.quorum_wait"]
			if phaseSum := pick.Sum + wait.Sum; phaseSum != ops.Sum {
				t.Errorf("pipelined Pick (%v) + QuorumWait (%v) = %v, want exactly Ops sum %v",
					pick.Sum, wait.Sum, phaseSum, ops.Sum)
			}
			if snap.Counters["client.msgs_sent"] == 0 || snap.Counters["client.msgs_recv"] == 0 {
				t.Error("transport counters did not register")
			}
			if gv := snap.Gauges["client.inflight"]; gv.Max == 0 {
				t.Error("in-flight gauge never rose above zero")
			}
			var b strings.Builder
			snap.WritePrometheus(&b)
			out := b.String()
			for _, want := range []string{"client_ops_count", "client_phase_pick_count", "client_msgs_sent", "client_inflight_max"} {
				if !strings.Contains(out, want) {
					t.Errorf("Prometheus output missing %q", want)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Keyspace conformance: the per-key register-semantics rows. A sharded
// keyspace promises that composing thousands of registers over shared
// machinery changes nothing about any single register's semantics — per-key
// linearizability must be checked, not assumed (Hadzilacos–Hu–Toueg). The
// rows below drive mixed-key pipelined load (16 keys, two clients, with
// concurrent writers on an 8-key subset) through a Keyspace on all four
// harnesses and then run the single-register checkers key by key, plus a
// cross-key isolation check: a value written to key A must never surface in
// key B's trace.

const (
	ksConfKeys   = 16 // working set per scenario
	ksConfSubset = 8  // keys written by BOTH clients concurrently
	ksConfRounds = 3
	ksConfShards = 8
)

// ksVal encodes the owning key into every written value, which is what
// makes cross-key isolation checkable from the trace alone.
func ksVal(key msg.RegisterID, writer, round int) string {
	return fmt.Sprintf("k%d|w%d|r%d", key, writer, round)
}

// ksValKeyOK reports whether a traced value may legally appear under key:
// nil / the 0.0 initial value, or a ksVal carrying this key's prefix.
func ksValKeyOK(key msg.RegisterID, val msg.Value) bool {
	if val == nil {
		return true
	}
	if f, ok := val.(float64); ok && f == 0.0 {
		return true
	}
	s, ok := val.(string)
	return ok && strings.HasPrefix(s, fmt.Sprintf("k%d|", key))
}

// ksConfRow is one keyspace conformance scenario.
type ksConfRow struct {
	name     string
	monotone bool
	atomic   bool // read phases use atomic reads; writer count drops to one
	check    func(t *testing.T, r ksConfResult)
}

type ksConfResult struct {
	ops      []trace.Op
	errs     []error
	gaugeMax int64
}

// ksFlow drives one client's rounds of mixed-key pipelined load, callback-
// chained so the same flow runs on blocking transports and inside the
// simulator's event loop. Each round fans one operation per key into
// flight at once — writes (when this flow writes), then reads.
type ksFlow struct {
	ks     *register.Keyspace
	writer int
	keys   []msg.RegisterID
	writes bool
	atomic bool

	mu       sync.Mutex
	round    int
	phase    int // 0 writes (skipped for read-only flows), 1 reads
	pending  int
	err      error
	finished bool
	done     chan struct{}
}

func newKsFlow(ks *register.Keyspace, writer, keys int, writes, atomic bool) *ksFlow {
	f := &ksFlow{ks: ks, writer: writer, writes: writes, atomic: atomic, done: make(chan struct{})}
	for k := 0; k < keys; k++ {
		f.keys = append(f.keys, msg.RegisterID(k))
	}
	return f
}

func (f *ksFlow) start() { f.launch() }

// launch fans out the current phase's operation per key. The pending count
// is set before the first submission: completions arrive concurrently on
// real transports.
func (f *ksFlow) launch() {
	f.mu.Lock()
	if !f.writes {
		f.phase = 1
	}
	phase, round := f.phase, f.round
	f.pending = len(f.keys)
	f.mu.Unlock()
	for _, key := range f.keys {
		key := key
		switch {
		case phase == 0:
			f.ks.WriteAsyncFunc(key, ksVal(key, f.writer, round), func(_ msg.Tagged, err error) {
				f.complete(key, msg.Tagged{}, err, false)
			})
		case f.atomic:
			f.ks.ReadAtomicAsyncFunc(key, func(tag msg.Tagged, err error) {
				f.complete(key, tag, err, true)
			})
		default:
			f.ks.ReadAsyncFunc(key, func(tag msg.Tagged, err error) {
				f.complete(key, tag, err, true)
			})
		}
	}
}

func (f *ksFlow) complete(key msg.RegisterID, tag msg.Tagged, err error, isRead bool) {
	f.mu.Lock()
	if err != nil && f.err == nil {
		f.err = err
	}
	if isRead && err == nil && !ksValKeyOK(key, tag.Val) && f.err == nil {
		f.err = fmt.Errorf("writer %d: key %d returned foreign value %v", f.writer, key, tag.Val)
	}
	f.pending--
	if f.pending > 0 || f.finished {
		f.mu.Unlock()
		return
	}
	if f.err == nil {
		if f.phase == 0 {
			f.phase = 1
			f.mu.Unlock()
			f.launch()
			return
		}
		if f.round++; f.round < ksConfRounds {
			f.phase = 0
			f.mu.Unlock()
			f.launch()
			return
		}
	}
	f.finished = true
	f.mu.Unlock()
	close(f.done)
}

// ksFlows builds the scenario's two client flows over their keyspaces:
// client 0 writes and reads the full working set; client 1 writes the
// shared subset concurrently (regular rows) or only reads (atomic rows,
// where per-key writes must stay single-writer for CheckAtomic to apply).
func ksFlows(row ksConfRow, ksA, ksB *register.Keyspace) []*ksFlow {
	a := newKsFlow(ksA, 1, ksConfKeys, true, row.atomic)
	var b *ksFlow
	if row.atomic {
		b = newKsFlow(ksB, 2, ksConfKeys, false, true)
	} else {
		b = newKsFlow(ksB, 2, ksConfSubset, true, false)
	}
	return []*ksFlow{a, b}
}

func ksResult(flows []*ksFlow, log *trace.Log, g *metrics.Gauge) ksConfResult {
	errs := make([]error, len(flows))
	for i, f := range flows {
		errs[i] = f.err
	}
	return ksConfResult{ops: log.Ops(), errs: errs, gaugeMax: g.Max()}
}

// perKeyOps splits a combined trace by key.
func perKeyOps(ops []trace.Op) map[msg.RegisterID][]trace.Op {
	m := make(map[msg.RegisterID][]trace.Op)
	for _, op := range ops {
		m[op.Reg] = append(m[op.Reg], op)
	}
	return m
}

// checkKeyIsolation asserts no key's trace carries a value written to
// another key — the cross-key isolation row.
func checkKeyIsolation(t *testing.T, ops []trace.Op) {
	t.Helper()
	for _, op := range ops {
		if op.Pending {
			continue
		}
		if !ksValKeyOK(op.Reg, op.Tag.Val) {
			t.Errorf("cross-key leak: key %d trace holds %v", op.Reg, op.Tag.Val)
		}
	}
}

var ksConfRows = []ksConfRow{
	{
		// Mixed-key regular/monotone load with concurrent writers on the
		// subset: the combined trace must be pipelined-well-formed, and per
		// key the [R2] reads-from and [R4] monotonicity checks must hold,
		// with no cross-key leakage.
		name:     "keyspace-mixed",
		monotone: true,
		check: func(t *testing.T, r ksConfResult) {
			noErrs(t, r2conf(r))
			if err := trace.CheckPipelinedWellFormed(r.ops); err != nil {
				t.Fatal(err)
			}
			byKey := perKeyOps(r.ops)
			if len(byKey) != ksConfKeys {
				t.Fatalf("trace covers %d keys, want %d", len(byKey), ksConfKeys)
			}
			for key, sub := range byKey {
				if err := trace.CheckReadsFrom(sub); err != nil {
					t.Errorf("key %d [R2]: %v", key, err)
				}
				if err := trace.CheckMonotone(sub); err != nil {
					t.Errorf("key %d [R4]: %v", key, err)
				}
			}
			checkKeyIsolation(t, r.ops)
			if r.gaugeMax < 2 {
				t.Fatalf("in-flight high-watermark = %d, want >= 2 (keys never overlapped)", r.gaugeMax)
			}
		},
	},
	{
		// Mixed-key atomic reads: one writer per key, a second client
		// racing ABD atomic reads across every key; each key's trace must
		// independently be atomic (no new-old inversions), with no
		// cross-key leakage.
		name:   "keyspace-atomic",
		atomic: true,
		check: func(t *testing.T, r ksConfResult) {
			noErrs(t, r2conf(r))
			if err := trace.CheckPipelinedWellFormed(r.ops); err != nil {
				t.Fatal(err)
			}
			byKey := perKeyOps(r.ops)
			if len(byKey) != ksConfKeys {
				t.Fatalf("trace covers %d keys, want %d", len(byKey), ksConfKeys)
			}
			for key, sub := range byKey {
				if err := trace.CheckReadsFrom(sub); err != nil {
					t.Errorf("key %d [R2]: %v", key, err)
				}
				if err := trace.CheckAtomic(sub); err != nil {
					t.Errorf("key %d atomicity: %v", key, err)
				}
			}
			checkKeyIsolation(t, r.ops)
			if r.gaugeMax < 2 {
				t.Fatalf("in-flight high-watermark = %d, want >= 2 (keys never overlapped)", r.gaugeMax)
			}
		},
	},
}

// r2conf adapts a keyspace result to noErrs.
func r2conf(r ksConfResult) confResult { return confResult{errs: r.errs} }

const ksConfServers = 5

func runKsClusterScenario(t *testing.T, row ksConfRow) ksConfResult {
	t.Helper()
	c, err := cluster.New(cluster.Config{Servers: ksConfServers, Initial: confInitial(ksConfKeys), Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	log := &trace.Log{}
	var g metrics.Gauge
	sys := confMajority(ksConfServers)
	clients := make([]*cluster.KeyspaceClient, 2)
	for i := range clients {
		opts := []cluster.ClientOption{cluster.WithTrace(log), cluster.WithInFlightGauge(&g)}
		if row.monotone {
			opts = append(opts, cluster.WithMonotone())
		}
		kc, err := c.NewKeyspace(sys, ksConfShards, opts...)
		if err != nil {
			t.Fatal(err)
		}
		defer kc.Close()
		clients[i] = kc
	}
	flows := ksFlows(row, clients[0].Keyspace(), clients[1].Keyspace())
	for _, f := range flows {
		f.start()
	}
	for _, f := range flows {
		<-f.done
	}
	return ksResult(flows, log, &g)
}

func runKsTCPScenario(t *testing.T, row ksConfRow) ksConfResult {
	t.Helper()
	initial := confInitial(ksConfKeys)
	addrs := make([]string, ksConfServers)
	for i := range addrs {
		srv, err := tcp.Listen(replica.New(msg.NodeID(i), initial), "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen server %d: %v", i, err)
		}
		t.Cleanup(srv.Close)
		addrs[i] = srv.Addr()
	}
	log := &trace.Log{}
	var g metrics.Gauge
	sys := confMajority(ksConfServers)
	clients := make([]*tcp.KeyspaceClient, 2)
	for i := range clients {
		opts := []tcp.ClientOption{
			tcp.WithTrace(log), tcp.WithInFlightGauge(&g),
			tcp.WithWriter(int32(i + 1)), tcp.WithSeed(uint64(i + 1)),
		}
		if row.monotone {
			opts = append(opts, tcp.WithMonotone())
		}
		kc, err := tcp.DialKeyspace(addrs, sys, ksConfShards, opts...)
		if err != nil {
			t.Fatal(err)
		}
		defer kc.Close()
		clients[i] = kc
	}
	flows := ksFlows(row, clients[0].Keyspace(), clients[1].Keyspace())
	for _, f := range flows {
		f.start()
	}
	for _, f := range flows {
		<-f.done
	}
	return ksResult(flows, log, &g)
}

// ksSimNode hosts one keyspace client flow inside the simulator, refreshing
// the context on every entry point before the keyspace can emit sends.
type ksSimNode struct {
	flow *ksFlow
	ctx  *sim.Context
}

func (n *ksSimNode) Init(ctx *sim.Context) {
	n.ctx = ctx
	n.flow.start()
}

func (n *ksSimNode) Recv(ctx *sim.Context, from msg.NodeID, m any) {
	n.ctx = ctx
	n.flow.ks.Deliver(int(from), m)
}

func runKsSimScenario(t *testing.T, row ksConfRow) ksConfResult {
	t.Helper()
	s := sim.New(13, sim.DistDelay{Dist: rng.Exponential{MeanD: time.Millisecond}})
	for srv := 0; srv < ksConfServers; srv++ {
		s.Add(msg.NodeID(srv), &replica.SimNode{Store: replica.New(msg.NodeID(srv), confInitial(ksConfKeys))})
	}
	log := &trace.Log{}
	var g metrics.Gauge
	sys := confMajority(ksConfServers)
	nodes := make([]*ksSimNode, 2)
	keyspaces := make([]*register.Keyspace, 2)
	for pi := range nodes {
		node := &ksSimNode{}
		nodes[pi] = node
		engines := make([]*register.Engine, ksConfShards)
		for i := range engines {
			eopts := []register.Option{register.WithOpStride(uint64(i), ksConfShards)}
			if row.monotone {
				eopts = append(eopts, register.Monotone())
			}
			engines[i] = register.NewEngine(int32(pi+1), sys,
				rng.Derive(17, fmt.Sprintf("conf.ks.sim.%d.%d", pi, i)), eopts...)
		}
		self := msg.NodeID(ksConfServers + pi)
		keyspaces[pi] = register.NewKeyspace(engines,
			func(server int, req any) { node.ctx.Send(msg.NodeID(server), req) },
			register.PipeClock(func() int64 { return int64(node.ctx.Now()) }),
			register.PipeTrace(log, self),
			register.PipeGauge(&g))
		s.Add(self, node)
	}
	flows := ksFlows(row, keyspaces[0], keyspaces[1])
	for pi, node := range nodes {
		node.flow = flows[pi]
	}
	s.Run()
	for pi, f := range flows {
		if f.err == nil && !f.finished {
			t.Fatalf("keyspace sim flow %d stalled (round %d, phase %d, pending %d)",
				pi, f.round, f.phase, f.pending)
		}
	}
	return ksResult(flows, log, &g)
}

// TestKeyspaceConformance runs the per-key rows against every transport.
func TestKeyspaceConformance(t *testing.T) {
	harnesses := []struct {
		name string
		run  func(t *testing.T, row ksConfRow) ksConfResult
	}{
		{"cluster", runKsClusterScenario},
		{"tcp", runKsTCPScenario},
		{"sim", runKsSimScenario},
	}
	for _, row := range ksConfRows {
		row := row
		for _, h := range harnesses {
			h := h
			t.Run(row.name+"/"+h.name, func(t *testing.T) {
				t.Parallel()
				row.check(t, h.run(t, row))
			})
		}
	}
}
