package aco

import (
	"cmp"
	"fmt"
	"sync/atomic"
	"time"

	"probquorum/internal/msg"
	"probquorum/internal/quorum"
	"probquorum/internal/register"
	"probquorum/internal/replica"
)

// DriverConfig is the transport-facing half of a runner configuration,
// shared verbatim by RunSim and RunTCP: how long one register operation
// attempt may run, and how many attempts it gets.
type DriverConfig struct {
	// OpTimeout, when positive, bounds each operation attempt; an attempt
	// that misses the deadline is reissued on a freshly picked quorum.
	// Required when crashes are injected: crashed servers are silent.
	OpTimeout time.Duration
	// Retries caps the attempts per operation (0 = unlimited); an operation
	// that exhausts the budget fails with register.ErrQuorumUnavailable.
	Retries int
}

// correctFunc is SimConfig.Correct and TCPConfig.Correct.
type correctFunc = func(owned []int, newVals, view []msg.Value) bool

// job is what both runners set up alike: the checked configuration, the
// convergence test, the block partition, one replica store per server
// seeded from op.Initial, and the monitor.
type job struct {
	op      Operator
	correct correctFunc
	part    Partition
	stores  []*replica.Store
	mon     *monitor
}

// newJob makes the one check of a runner configuration and builds its job.
// Without a Correct test, a process is correct when its owned components
// equal the fixed point: target, or computed when nil. The runner sets the
// monitor's clock and halt before it starts the processes.
func newJob(op Operator, target []msg.Value, correct correctFunc, servers, procs, maxRounds int,
	sys quorum.System, crashes []CrashEvent, opTimeout time.Duration) (*job, error) {
	m := op.M()
	switch {
	case servers <= 0:
		return nil, fmt.Errorf("aco: invalid server count %d", servers)
	case sys == nil:
		return nil, fmt.Errorf("aco: missing quorum system")
	case sys.N() != servers:
		return nil, fmt.Errorf("aco: quorum system covers %d servers, cluster has %d", sys.N(), servers)
	case target != nil && len(target) != m:
		return nil, fmt.Errorf("aco: target has %d components, operator has %d", len(target), m)
	case len(crashes) > 0 && opTimeout <= 0:
		// Crashed servers never reply: operations progress only by timing
		// out and retrying on fresh quorums.
		return nil, fmt.Errorf("aco: crash schedule requires OpTimeout > 0 (operations must retry)")
	}
	for i, ev := range crashes {
		if ev.Server < 0 || ev.Server >= servers || ev.At < 0 || ev.AfterIteration < 0 {
			return nil, fmt.Errorf("aco: crash event %d (server %d of %d, At %v, AfterIteration %d) is out of range",
				i, ev.Server, servers, ev.At, ev.AfterIteration)
		}
	}
	if correct == nil {
		if target == nil {
			fp, _, err := FixedPoint(op, 0)
			if err != nil {
				return nil, fmt.Errorf("computing fixed point: %w", err)
			}
			target = fp
		}
		correct = func(owned []int, newVals, _ []msg.Value) bool {
			for li, comp := range owned {
				if !op.Equal(comp, newVals[li], target[comp]) {
					return false
				}
			}
			return true
		}
	}
	part := BlockPartition(m, cmp.Or(procs, m))
	if err := part.Validate(); err != nil {
		return nil, err
	}
	if maxRounds <= 0 {
		maxRounds = 10000
	}
	initial := make(map[msg.RegisterID]msg.Value, m)
	for i, v := range op.Initial() {
		initial[msg.RegisterID(i)] = v
	}
	stores := make([]*replica.Store, servers)
	for i := range stores {
		stores[i] = replica.New(msg.NodeID(i), initial)
	}
	mon := &monitor{
		stores: stores, crashes: crashes, maxRounds: maxRounds,
		correct: make([]bool, part.P()), inRound: make([]bool, part.P()),
	}
	return &job{op: op, correct: correct, part: part, stores: stores, mon: mon}, nil
}

// Outcome is what both runners report about a run.
type Outcome struct {
	// Converged reports whether every process's owned components matched
	// the fixed point simultaneously before MaxRounds.
	Converged bool
	// Rounds is the number of rounds until convergence (counting a final
	// partial round), or the cap if not converged — a lower bound, as in
	// the paper's Figure 2 open squares. Both runners count rounds by the
	// same definition (see monitor), on virtual or on wall-clock time.
	Rounds int
	// Iterations is the total number of completed loop iterations summed
	// over all processes, up to the converging one.
	Iterations int64
	// Messages is the total message count: requests sent plus replies
	// received (over sockets, batch frames counted per element).
	Messages int64
	// CacheHits counts monotone reads served from the processes' caches.
	CacheHits int64
	// Retries counts operation deadlines that spent retry budget (only with
	// OpTimeout set).
	Retries int64
	// Final is the register contents at the end of the run: for each
	// component, the maximum-timestamp value across all replicas.
	Final []msg.Value
}

// outcome reads a stopped run's result off the monitor and the stores; the
// runner adds the message and client counts.
func (j *job) outcome() Outcome {
	final := make([]msg.Value, j.op.M())
	for i := range final {
		best := j.stores[0].Get(msg.RegisterID(i))
		for _, st := range j.stores[1:] {
			best = msg.MaxTagged(best, st.Get(msg.RegisterID(i)))
		}
		final[i] = best.Val
	}
	return Outcome{Converged: j.mon.converged, Rounds: j.mon.rounds, Iterations: j.mon.iterations, Final: final}
}

// process is one application process of Alg. 1: read all m registers, apply
// the operator to the view, write the owned registers, report the iteration
// to the monitor, repeat. It never blocks: each operation is submitted from
// the completion of an earlier one, which runs inside a simulator event or,
// over sockets, on a connection's reader goroutine or a deadline timer.
//
// A serial process submits each operation from the completion of the one
// before: one pending operation per process, the paper's model. A pipelined
// one submits all m reads at once, then the owned writes, so their quorum
// round-trips overlap; same-register operations stay FIFO inside the
// client, so the monotone variant's guarantees are unchanged either way.
// Completions of one phase may run on several goroutines at once: each
// writes only its own slot, and the one that takes pending to zero starts
// the next phase.
type process struct {
	*job
	idx     int
	cl      *register.Keyspace
	serial  bool
	owned   []int
	view    []msg.Value // the m components read this iteration
	newVals []msg.Value // the owned components' new values

	// readDone[j] and writeDone[li] are the completion callbacks of register
	// j's read and owned component li's write, built once.
	readDone  []func(msg.Tagged, error)
	writeDone []func(msg.Tagged, error)

	iterStart time.Duration
	pending   atomic.Int32
}

// process builds process pi of the job over cl — a one-shard NewKeyspace in
// the simulator, a tcp.Client's keyspace over sockets; startIteration(0)
// runs it from the start of the monitor's clock.
func (j *job) process(pi int, cl *register.Keyspace, pipelined bool) *process {
	m, owned := j.op.M(), j.part.Owned(pi)
	p := &process{
		job: j, idx: pi, cl: cl, serial: !pipelined, owned: owned,
		view: make([]msg.Value, m), newVals: make([]msg.Value, len(owned)),
		readDone: make([]func(msg.Tagged, error), m), writeDone: make([]func(msg.Tagged, error), len(owned)),
	}
	for r := range p.readDone {
		p.readDone[r] = func(tag msg.Tagged, err error) {
			defer p.mon.settle()
			if p.mon.ignore(p.idx, err) {
				return
			}
			p.view[r] = tag.Val
			if p.serial {
				p.read(r + 1)
			}
			if p.pending.Add(-1) == 0 {
				p.computePhase()
			}
		}
	}
	for li := range p.writeDone {
		p.writeDone[li] = func(_ msg.Tagged, err error) {
			defer p.mon.settle()
			if p.mon.ignore(p.idx, err) {
				return
			}
			if p.serial {
				p.write(li + 1)
			}
			if p.pending.Add(-1) == 0 {
				p.finishIteration()
			}
		}
	}
	return p
}

func (p *process) startIteration(start time.Duration) {
	p.iterStart = start
	p.pending.Store(int32(len(p.view)))
	p.read(0)
}

// read submits register j's read and, unless the process is serial, the
// reads of every register after it.
func (p *process) read(j int) {
	for ; j < len(p.view); j++ {
		p.mon.busy.Add(1)
		p.cl.ReadAsyncFunc(msg.RegisterID(j), p.readDone[j])
		if p.serial {
			return
		}
	}
}

// write submits owned component li's write and, unless the process is
// serial, the writes of every owned component after it.
func (p *process) write(li int) {
	for ; li < len(p.owned); li++ {
		p.mon.busy.Add(1)
		p.cl.WriteAsyncFunc(msg.RegisterID(p.owned[li]), p.newVals[li], p.writeDone[li])
		if p.serial {
			return
		}
	}
}

// computePhase applies the operator to the completed view and writes the
// owned components.
func (p *process) computePhase() {
	for li, comp := range p.owned {
		p.newVals[li] = p.op.Apply(comp, p.view)
	}
	p.pending.Store(int32(len(p.owned)))
	p.write(0)
}

func (p *process) finishIteration() {
	correct := p.correct(p.owned, p.newVals, p.view)
	if next, ok := p.mon.iterationDone(p.idx, p.iterStart, correct); ok {
		p.startIteration(next)
	}
}
