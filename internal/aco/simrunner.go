package aco

import (
	"fmt"

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
	// Pipelined overlaps each process's register operations: the m reads of
	// an iteration are in flight at once, as are the writes of the owned
	// components. Otherwise a process waits for each operation before it
	// submits the next — one pending operation per process, the paper's
	// model. Both run on the same register.Pipeline, deadlines and crash
	// schedule included.
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
	// shared with the TCP runner. Deadlines are virtual-time events here.
	// A process whose operation exhausts a non-zero Retries budget aborts
	// the run: RunSim returns its register.ErrQuorumUnavailable.
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
	// Retries counts operation deadlines that expired and re-issued the
	// attempt on a fresh quorum (only with OpTimeout set).
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
	settings := register.Settings{
		OpTimeout: cfg.OpTimeout, Retries: cfg.Retries, Trace: cfg.Trace, Gauge: cfg.Gauge,
		Monotone: cfg.Monotone, ReadRepair: cfg.ReadRepair, Tally: cfg.Tally, WriteSystem: cfg.WriteSystem,
	}
	nodes := make([]*pipeProcNode, procs)
	for pi := 0; pi < procs; pi++ {
		engine, err := settings.Engine(int32(pi), cfg.System, rng.Derive(cfg.Seed, fmt.Sprintf("aco.engine.%d", pi)))
		if err != nil {
			return SimResult{}, err
		}
		self := msg.NodeID(cfg.Servers + pi)
		node := &pipeProcNode{
			idx:     pi,
			serial:  !cfg.Pipelined,
			op:      op,
			owned:   part.Owned(pi),
			m:       m,
			target:  target,
			correct: cfg.Correct,
			mon:     mon,
		}
		send := func(server int, req any) { node.ctx.Send(msg.NodeID(server), req) }
		settings.Proc = self
		node.pl = register.NewPipeline(engine, send, register.ApplyPipeline(settings), register.PipeClock(s.Clock(self)))
		nodes[pi] = node
		s.Add(self, node)
	}

	s.Run()

	var cacheHits, retries int64
	for _, node := range nodes {
		if node.err != nil {
			return SimResult{}, node.err
		}
		cacheHits += node.pl.Engine().CacheHits()
		retries += node.pl.Retries()
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
