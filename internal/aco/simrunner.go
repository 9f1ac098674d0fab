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
	// model. Both run on the same register.Keyspace, deadlines and crash
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
	// Crashes schedules replica crash/recovery events at virtual times or
	// on process 0's progress, exercising the availability story end-to-end.
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
	Outcome
	// VirtualTime is the simulated time at which the run ended.
	VirtualTime sim.Time
}

// simProc runs a process as a simulator node: its client's sends and
// deadlines are simulator events, so the simulator needs no protocol driver
// of its own.
type simProc struct {
	*process
	cl  *register.Keyspace
	ctx *sim.Context
}

// Init keeps the node's context, which lasts the run, and starts it.
func (n *simProc) Init(ctx *sim.Context) {
	n.ctx = ctx
	n.startIteration(0)
}

// Recv hands a replica's reply to the client's typed calls, the ones a
// TCP client's reader makes: the simulator carries messages boxed, and
// nothing behind this switch sees the box.
func (n *simProc) Recv(_ *sim.Context, from msg.NodeID, m any) {
	switch m := m.(type) {
	case msg.ReadReply:
		n.cl.ReplyBatch(int(from), []msg.ReadReply{m}, nil)
	case msg.WriteAck:
		n.cl.ReplyBatch(int(from), nil, []msg.WriteAck{m})
	case msg.StaleEpoch:
		n.cl.StaleEpoch(int(from), m)
	}
}

// crashNode is the simulator node that arms the crash schedule. Its id is
// above every server's and process's, so its Init runs after each process
// has submitted its first operation.
type crashNode struct{ mon *monitor }

func (c crashNode) Init(*sim.Context) { c.mon.schedule() }

func (crashNode) Recv(*sim.Context, msg.NodeID, any) {}

// RunSim executes Alg. 1 once under the configuration and returns the
// measured result.
func RunSim(cfg SimConfig) (SimResult, error) {
	if cfg.Delay == nil && cfg.DelayModel == nil {
		return SimResult{}, fmt.Errorf("aco: missing delay distribution")
	}
	j, err := newJob(cfg.Op, cfg.Target, cfg.Correct, cfg.Servers, cfg.Procs, cfg.MaxRounds,
		cfg.System, cfg.Crashes, cfg.OpTimeout)
	if err != nil {
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
	for srv, st := range j.stores {
		s.Add(msg.NodeID(srv), &replica.SimNode{Store: st})
	}
	procs := j.part.P()
	crashID := msg.NodeID(cfg.Servers + procs)
	j.mon.clock, j.mon.halt = s.Clock(crashID), s.Stop
	if len(cfg.Crashes) > 0 {
		s.Add(crashID, crashNode{j.mon})
	}

	settings := register.Settings{
		OpTimeout: cfg.OpTimeout, Retries: cfg.Retries, Trace: cfg.Trace, Gauge: cfg.Gauge,
		Monotone: cfg.Monotone, ReadRepair: cfg.ReadRepair, Tally: cfg.Tally, WriteSystem: cfg.WriteSystem,
	}
	cls := make([]*register.Keyspace, procs)
	for pi := range cls {
		engine, err := settings.Engine(int32(pi), cfg.System, rng.Derive(cfg.Seed, fmt.Sprintf("aco.engine.%d", pi)))
		if err != nil {
			return SimResult{}, err
		}
		self := msg.NodeID(cfg.Servers + pi)
		node := &simProc{}
		send := func(server int, req any) { node.ctx.Send(msg.NodeID(server), req) }
		settings.Proc = self
		cls[pi] = register.NewKeyspace(engine, send, register.ApplyPipeline(settings), register.PipeClock(s.Clock(self)))
		node.cl, node.process = cls[pi], j.process(pi, cls[pi], cfg.Pipelined)
		s.Add(self, node)
	}

	s.Run()

	if j.mon.err != nil {
		return SimResult{}, j.mon.err
	}
	res := SimResult{Outcome: j.outcome(), VirtualTime: s.Now()}
	res.Messages = s.Messages()
	for _, cl := range cls {
		res.CacheHits += cl.CacheHits()
		res.Retries += cl.Retries()
	}
	return res, nil
}
