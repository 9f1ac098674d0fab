package aco

import (
	"fmt"
	"time"

	"probquorum/internal/metrics"
	"probquorum/internal/msg"
	"probquorum/internal/quorum"
	"probquorum/internal/register"
	"probquorum/internal/replica"
	"probquorum/internal/rng"
	"probquorum/internal/sim"
	"probquorum/internal/trace"
)

// SimConfig configures one simulated execution of Alg. 1 (paper, Section 5):
// p processes iterate an operator over m shared registers, each implemented
// by the (monotone) probabilistic quorum algorithm over the given servers.
type SimConfig struct {
	// Op is the iterative algorithm to run.
	Op Operator
	// Target is the precomputed fixed point; if nil it is computed by
	// synchronous iteration. Experiments precompute it once per workload.
	Target []msg.Value
	// Servers is the number of replica servers n.
	Servers int
	// Procs is the number of application processes p. Components are
	// block-partitioned among them; Procs defaults to Op.M().
	Procs int
	// System is the quorum system used by every process's register engine.
	System quorum.System
	// WriteSystem, if non-nil, makes writes pick from a different system
	// than reads (the asymmetric-quorum ablation). Must cover the same
	// servers as System.
	WriteSystem quorum.System
	// Monotone selects the monotone register variant of Section 6.
	Monotone bool
	// ReadRepair enables write-back of the freshest observed value to
	// stale quorum members after every read (an ablation extension; not
	// part of the paper's algorithm).
	ReadRepair bool
	// Pipelined runs each process's register operations through a
	// register.Pipeline: the m reads of an iteration overlap their quorum
	// round-trips, as do the writes of the owned components. Only
	// failure-free executions are supported in the simulator (the
	// Pipeline's retry deadlines are wall-clock timers, which have no
	// meaning on virtual time): OpTimeout and Crashes are rejected. Crash
	// injection against pipelined clients runs on the cluster and TCP
	// runtimes instead.
	Pipelined bool
	// Gauge, if non-nil, tracks the pipelined processes' in-flight
	// operation count; its high-watermark is how tests assert that
	// operations genuinely overlapped.
	Gauge *metrics.Gauge
	// Delay is the message-delay distribution: rng.Constant for the paper's
	// synchronous executions, rng.Exponential for asynchronous ones.
	Delay rng.Dist
	// DelayModel, if non-nil, overrides Delay with an arbitrary (possibly
	// adversarial) delay rule; the paper's correctness statements are
	// quantified over every adversary, and tests exercise hostile models
	// from the sim package through this hook.
	DelayModel sim.DelayModel
	// Seed makes the execution reproducible.
	Seed uint64
	// MaxRounds caps the execution; runs that hit the cap are reported as
	// not converged (the paper reports these as lower bounds). Defaults to
	// 10000.
	MaxRounds int
	// DriverConfig carries the per-operation deadline and retry budget
	// shared with the cluster and TCP runners. Deadlines are virtual-time
	// events here. A process
	// whose operation exhausts a non-zero Retries budget aborts the run
	// with register.ErrQuorumUnavailable.
	DriverConfig
	// Crashes schedules replica crash/recovery events at virtual times,
	// exercising the availability story end-to-end.
	Crashes []CrashEvent
	// MaxEvents caps delivered simulator events (default 50 million): the
	// backstop that terminates runs making no round progress at all, such
	// as retry storms against a dead cluster.
	MaxEvents int64
	// Trace optionally records every completed register operation for
	// property checking.
	Trace *trace.Log
	// Tally optionally records per-server quorum accesses.
	Tally *metrics.AccessTally
	// Correct, if non-nil, replaces the fixed-point comparison as the
	// per-process convergence test: it receives the process's owned
	// component indices, their freshly computed values, and the full view
	// the iteration used. Applications whose stopping condition is not
	// proximity to a unique fixed point (approximate agreement, for
	// example) use this; Target may then be nil.
	Correct func(owned []int, newVals, view []msg.Value) bool
}

// SimResult reports one execution's outcome.
type SimResult struct {
	// Converged reports whether every process's owned components matched
	// the fixed point simultaneously before MaxRounds.
	Converged bool
	// Rounds is the number of rounds until convergence (counting a final
	// partial round), or the cap if not converged — a lower bound, as in
	// the paper's Figure 2 open squares.
	Rounds int
	// Iterations is the total number of completed loop iterations summed
	// over all processes.
	Iterations int64
	// Messages is the total message count (requests and replies).
	Messages int64
	// CacheHits counts monotone reads served from the client cache.
	CacheHits int64
	// Retries counts operations reissued after timing out (only with
	// OpTimeout set).
	Retries int64
	// VirtualTime is the simulated time at which the run ended.
	VirtualTime sim.Time
	// Final is the register contents at the end of the run: for each
	// component, the maximum-timestamp value across all replicas.
	Final []msg.Value
}

// monitor tracks convergence and round structure across all processes. A
// round is the minimal contiguous window in which every process completes
// at least one full iteration that started within the window (paper,
// Sections 6.3 and 7).
type monitor struct {
	procs      int
	correct    []bool
	nCorrect   int
	roundStart sim.Time
	inRound    []bool
	nInRound   int
	rounds     int
	maxRounds  int
	converged  bool
	roundsConv int
	iterations int64
}

func newMonitor(procs, maxRounds int) *monitor {
	return &monitor{
		procs:     procs,
		correct:   make([]bool, procs),
		inRound:   make([]bool, procs),
		maxRounds: maxRounds,
	}
}

func (mo *monitor) iterationDone(ctx *sim.Context, proc int, start sim.Time, correct bool) {
	if mo.converged {
		return
	}
	mo.iterations++
	if correct != mo.correct[proc] {
		mo.correct[proc] = correct
		if correct {
			mo.nCorrect++
		} else {
			mo.nCorrect--
		}
	}
	// Round bookkeeping first, so convergence detected on the iteration
	// that closes a round is attributed to that round.
	if start >= mo.roundStart && !mo.inRound[proc] {
		mo.inRound[proc] = true
		mo.nInRound++
		if mo.nInRound == mo.procs {
			mo.rounds++
			mo.roundStart = ctx.Now()
			for i := range mo.inRound {
				mo.inRound[i] = false
			}
			mo.nInRound = 0
		}
	}
	if mo.nCorrect == mo.procs {
		mo.converged = true
		mo.roundsConv = mo.rounds
		if mo.nInRound > 0 {
			mo.roundsConv++ // convergence mid-round: the partial round counts
		}
		ctx.Stop()
		return
	}
	if mo.rounds >= mo.maxRounds {
		ctx.Stop()
	}
}

// procNode is one application process of Alg. 1 as a simulator state
// machine: read all m registers (sequentially), apply F to the view,
// write the owned registers, check convergence, repeat. The register
// protocol itself — quorum sessions, retry on a fresh quorum, repair
// dispatch — lives in register.Operation; this node only carries the
// iteration structure and pushes the Operation's fan-outs into the
// simulator's message layer.
type procNode struct {
	idx     int
	engine  *register.Engine
	op      Operator
	owned   []int
	m       int
	target  []msg.Value
	correct func(owned []int, newVals, view []msg.Value) bool
	mon     *monitor
	tr      *trace.Log
	self    msg.NodeID
	view    []msg.Value
	newVals []msg.Value // recomputed owned values, parallel to owned

	reading   bool // current phase: reading the view vs writing owned
	cursor    int
	cur       *register.Operation
	sends     []register.Send // fan-out buffer, handed to the simulator per event
	iterStart sim.Time
	opInvoke  sim.Time
	wsHandle  int // trace handle of the in-flight write, if tr != nil

	timeout time.Duration
	budget  int    // per-operation attempt cap (0 = unlimited)
	attempt uint64 // increments per (re)issued fan-out; stale timers no-op
	retries int64
	err     error // first quorum-unavailability failure; aborts the run
}

var _ sim.Handler = (*procNode)(nil)

func (p *procNode) Init(ctx *sim.Context) {
	p.view = make([]msg.Value, p.m)
	p.newVals = make([]msg.Value, len(p.owned))
	p.startIteration(ctx)
}

func (p *procNode) startIteration(ctx *sim.Context) {
	p.iterStart = ctx.Now()
	p.reading = true
	p.cursor = 0
	p.beginRead(ctx)
}

func (p *procNode) armTimeout(ctx *sim.Context) {
	if p.timeout > 0 {
		p.attempt++
		ctx.After(p.timeout, 1, p.attempt)
	}
}

// dispatch hands the buffered fan-out to the simulator and empties the
// buffer.
func (p *procNode) dispatch(ctx *sim.Context) {
	for _, s := range p.sends {
		ctx.Send(msg.NodeID(s.Server), s.Req)
	}
	clear(p.sends)
	p.sends = p.sends[:0]
}

func (p *procNode) beginRead(ctx *sim.Context) {
	p.cur = p.engine.NewReadOp(msg.RegisterID(p.cursor), p.budget)
	p.opInvoke = ctx.Now()
	p.sends = p.cur.Start(p.sends)
	p.dispatch(ctx)
	p.armTimeout(ctx)
}

func (p *procNode) beginWrite(ctx *sim.Context) {
	comp := p.owned[p.cursor]
	p.cur = p.engine.NewWriteOp(msg.RegisterID(comp), p.newVals[p.cursor], p.budget)
	p.opInvoke = ctx.Now()
	p.sends = p.cur.Start(p.sends)
	if p.tr != nil {
		// Writes are logged at invocation so that reads observing a write
		// still in flight when the run stops can be validated against it.
		p.wsHandle = p.tr.Begin(trace.Op{
			Kind: trace.KindWrite, Proc: p.self, Reg: p.cur.Reg(),
			Invoke: int64(p.opInvoke), Tag: p.cur.PendingTag(),
		})
	}
	p.dispatch(ctx)
	p.armTimeout(ctx)
}

// retryOp reissues the current operation on a freshly picked quorum (writes
// keep their timestamp). An exhausted retry budget aborts the whole run:
// under the configured fault load no quorum answered this process in time.
func (p *procNode) retryOp(ctx *sim.Context) {
	var err error
	p.sends, err = p.cur.Retry(p.sends)
	if err != nil {
		p.err = fmt.Errorf("aco: proc %d: %s reg %d: %w after %d attempts",
			p.idx, p.cur.Desc(), p.cur.Reg(), err, p.cur.Attempts())
		ctx.Stop()
		return
	}
	p.retries++
	p.dispatch(ctx)
	p.armTimeout(ctx)
}

// Timer implements sim.TimerHandler: a per-operation retry deadline. If the
// operation that armed this timer is still incomplete, it is reissued on a
// fresh quorum — reads anew, writes with their original timestamp.
func (p *procNode) Timer(ctx *sim.Context, _ int, payload any) {
	att, ok := payload.(uint64)
	if !ok || att != p.attempt || ctx.Stopped() {
		return // a newer operation superseded this deadline
	}
	if p.cur == nil || p.cur.Done() || p.err != nil {
		return
	}
	p.retryOp(ctx)
}

func (p *procNode) Recv(ctx *sim.Context, from msg.NodeID, m any) {
	if p.cur == nil || p.cur.Done() || p.err != nil {
		return // stale reply from a completed operation
	}
	// Repair write-backs ride along in the returned fan-out: fire-and-forget,
	// replicas drop stale installs and stray acks are filtered by op id.
	p.sends = p.cur.Deliver(int(from), m, p.sends)
	p.dispatch(ctx)
	if p.cur.Rejected() {
		p.retryOp(ctx) // masked read outvoted; draw a fresh quorum now
		return
	}
	if !p.cur.Done() {
		return
	}
	if p.reading {
		tag := p.cur.Result()
		if p.tr != nil {
			p.tr.Record(trace.Op{
				Kind: trace.KindRead, Proc: p.self, Reg: p.cur.Reg(),
				Invoke: int64(p.opInvoke), Respond: int64(ctx.Now()), Tag: tag,
			})
		}
		p.view[p.cursor] = tag.Val
		p.cursor++
		if p.cursor < p.m {
			p.beginRead(ctx)
			return
		}
		p.computePhase(ctx)
		return
	}
	if p.tr != nil {
		p.tr.Complete(p.wsHandle, int64(ctx.Now()))
	}
	p.cursor++
	if p.cursor < len(p.owned) {
		p.beginWrite(ctx)
		return
	}
	p.finishIteration(ctx)
}

func (p *procNode) computePhase(ctx *sim.Context) {
	for li, comp := range p.owned {
		p.newVals[li] = p.op.Apply(comp, p.view)
	}
	p.reading = false
	p.cursor = 0
	p.beginWrite(ctx)
}

func (p *procNode) finishIteration(ctx *sim.Context) {
	var correct bool
	if p.correct != nil {
		correct = p.correct(p.owned, p.newVals, p.view)
	} else {
		correct = true
		for li, comp := range p.owned {
			if !p.op.Equal(comp, p.newVals[li], p.target[comp]) {
				correct = false
				break
			}
		}
	}
	p.mon.iterationDone(ctx, p.idx, p.iterStart, correct)
	if ctx.Stopped() {
		return
	}
	p.startIteration(ctx)
}

// RunSim executes Alg. 1 once under the configuration and returns the
// measured result.
func RunSim(cfg SimConfig) (SimResult, error) {
	op := cfg.Op
	m := op.M()
	procs := cfg.Procs
	if procs == 0 {
		procs = m
	}
	if cfg.Servers <= 0 {
		return SimResult{}, fmt.Errorf("aco: invalid server count %d", cfg.Servers)
	}
	if cfg.System == nil {
		return SimResult{}, fmt.Errorf("aco: missing quorum system")
	}
	if cfg.System.N() != cfg.Servers {
		return SimResult{}, fmt.Errorf("aco: quorum system covers %d servers, cluster has %d",
			cfg.System.N(), cfg.Servers)
	}
	if cfg.WriteSystem != nil && cfg.WriteSystem.N() != cfg.Servers {
		return SimResult{}, fmt.Errorf("aco: write quorum system covers %d servers, cluster has %d",
			cfg.WriteSystem.N(), cfg.Servers)
	}
	if cfg.Delay == nil && cfg.DelayModel == nil {
		return SimResult{}, fmt.Errorf("aco: missing delay distribution")
	}
	target := cfg.Target
	if target == nil && cfg.Correct == nil {
		fp, _, err := FixedPoint(op, 0)
		if err != nil {
			return SimResult{}, fmt.Errorf("computing fixed point: %w", err)
		}
		target = fp
	}
	if target != nil && len(target) != m {
		return SimResult{}, fmt.Errorf("aco: target has %d components, operator has %d", len(target), m)
	}
	part := BlockPartition(m, procs)
	if err := part.Validate(); err != nil {
		return SimResult{}, err
	}
	maxRounds := cfg.MaxRounds
	if maxRounds <= 0 {
		maxRounds = 10000
	}
	if err := validateCrashes(cfg.Crashes, cfg.Servers, cfg.OpTimeout, false); err != nil {
		return SimResult{}, err
	}
	if cfg.Pipelined {
		if cfg.OpTimeout > 0 || len(cfg.Crashes) > 0 {
			return SimResult{}, fmt.Errorf("aco: pipelined simulation is failure-free: OpTimeout and Crashes are not supported (use the cluster or TCP runtime for pipelined crash injection)")
		}
	}

	model := cfg.DelayModel
	if model == nil {
		model = sim.DistDelay{Dist: cfg.Delay}
	}
	s := sim.New(cfg.Seed, model)
	maxEvents := cfg.MaxEvents
	if maxEvents <= 0 {
		maxEvents = 50_000_000
	}
	s.SetMaxEvents(maxEvents)

	initial := op.Initial()
	regInit := make(map[msg.RegisterID]msg.Value, m)
	for i, v := range initial {
		regInit[msg.RegisterID(i)] = v
	}
	stores := make([]*replica.Store, cfg.Servers)
	for srv := 0; srv < cfg.Servers; srv++ {
		stores[srv] = replica.New(msg.NodeID(srv), regInit)
		s.Add(msg.NodeID(srv), &replica.SimNode{Store: stores[srv]})
	}

	if len(cfg.Crashes) > 0 {
		s.Add(msg.NodeID(cfg.Servers+procs), &faultController{stores: stores, events: cfg.Crashes})
	}

	mon := newMonitor(procs, maxRounds)
	engines := make([]*register.Engine, procs)
	nodes := make([]*procNode, procs)
	for pi := 0; pi < procs; pi++ {
		var opts []register.Option
		if cfg.Monotone {
			opts = append(opts, register.Monotone())
		}
		if cfg.Tally != nil {
			opts = append(opts, register.WithTally(cfg.Tally))
		}
		if cfg.WriteSystem != nil {
			opts = append(opts, register.WithWriteSystem(cfg.WriteSystem))
		}
		if cfg.ReadRepair {
			opts = append(opts, register.WithReadRepair())
		}
		engines[pi] = register.NewEngine(int32(pi), cfg.System,
			rng.Derive(cfg.Seed, fmt.Sprintf("aco.engine.%d", pi)), opts...)
		if cfg.Pipelined {
			node := &pipeProcNode{
				idx:     pi,
				op:      op,
				owned:   part.Owned(pi),
				m:       m,
				target:  target,
				correct: cfg.Correct,
				mon:     mon,
				self:    msg.NodeID(cfg.Servers + pi),
			}
			send := func(server int, req any) { node.ctx.Send(msg.NodeID(server), req) }
			plOpts := []register.PipelineOption{
				register.PipeClock(func() int64 { return int64(node.ctx.Now()) }),
			}
			if cfg.Trace != nil {
				plOpts = append(plOpts, register.PipeTrace(cfg.Trace, node.self))
			}
			if cfg.Gauge != nil {
				plOpts = append(plOpts, register.PipeGauge(cfg.Gauge))
			}
			node.pl = register.NewPipeline(engines[pi], send, plOpts...)
			s.Add(node.self, node)
			continue
		}
		node := &procNode{
			idx:     pi,
			engine:  engines[pi],
			op:      op,
			owned:   part.Owned(pi),
			m:       m,
			target:  target,
			correct: cfg.Correct,
			mon:     mon,
			tr:      cfg.Trace,
			self:    msg.NodeID(cfg.Servers + pi),
			timeout: cfg.OpTimeout,
			budget:  cfg.Retries,
		}
		nodes[pi] = node
		s.Add(node.self, node)
	}

	s.Run()

	var cacheHits, retries int64
	for _, e := range engines {
		cacheHits += e.CacheHits()
	}
	for _, node := range nodes {
		if node == nil {
			continue
		}
		if node.err != nil {
			return SimResult{}, node.err
		}
		retries += node.retries
	}
	rounds := mon.roundsConv
	if !mon.converged {
		rounds = mon.rounds
	}
	final := make([]msg.Value, m)
	for i := 0; i < m; i++ {
		best := stores[0].Get(msg.RegisterID(i))
		for _, st := range stores[1:] {
			best = msg.MaxTagged(best, st.Get(msg.RegisterID(i)))
		}
		final[i] = best.Val
	}
	return SimResult{
		Converged:   mon.converged,
		Rounds:      rounds,
		Iterations:  mon.iterations,
		Messages:    s.Messages(),
		CacheHits:   cacheHits,
		Retries:     retries,
		VirtualTime: s.Now(),
		Final:       final,
	}, nil
}
