package aco

import (
	"fmt"

	"probquorum/internal/msg"
	"probquorum/internal/register"
	"probquorum/internal/sim"
)

// pipeProcNode is one application process of Alg. 1 as a simulator node:
// read all m registers, apply the operator to the view, write the owned
// registers, check convergence, repeat. Its register operations run on a
// register.Pipeline — the engine every runtime runs — whose deadlines are
// simulator events on the node's virtual clock (sim.Clock), so the
// simulator needs no protocol driver of its own.
//
// A serial process submits each operation from the completion of the one
// before: a depth-1 pipeline, one pending operation per process, the
// paper's model. A pipelined one submits all m reads at once, then the
// owned writes, so their quorum round-trips overlap; same-register
// operations stay FIFO inside the Pipeline, so the monotone variant's
// guarantees are unchanged either way.
type pipeProcNode struct {
	idx     int
	pl      *register.Pipeline
	serial  bool
	op      Operator
	owned   []int
	m       int
	target  []msg.Value
	correct func(owned []int, newVals, view []msg.Value) bool
	mon     *monitor
	view    []msg.Value
	newVals []msg.Value

	// readDone[j] and writeDone[li] are the completion callbacks of register
	// j's read and owned component li's write, built once.
	readDone  []func(msg.Tagged, error)
	writeDone []func(msg.Tagged, error)

	// ctx is the node's simulator context, the same for the whole run;
	// Pipeline completion callbacks run synchronously inside its events.
	ctx       *sim.Context
	iterStart sim.Time
	pending   int
	err       error // the first failed operation; it stops the run
}

var _ sim.Handler = (*pipeProcNode)(nil)

func (p *pipeProcNode) Init(ctx *sim.Context) {
	p.ctx = ctx
	p.view = make([]msg.Value, p.m)
	p.newVals = make([]msg.Value, len(p.owned))
	p.readDone = make([]func(msg.Tagged, error), p.m)
	for j := range p.readDone {
		p.readDone[j] = func(tag msg.Tagged, err error) {
			if p.failed(err) {
				return
			}
			p.view[j] = tag.Val
			if p.serial {
				p.read(j + 1)
			}
			if p.pending--; p.pending == 0 {
				p.computePhase()
			}
		}
	}
	p.writeDone = make([]func(msg.Tagged, error), len(p.owned))
	for li := range p.writeDone {
		p.writeDone[li] = func(_ msg.Tagged, err error) {
			if p.failed(err) {
				return
			}
			if p.serial {
				p.write(li + 1)
			}
			if p.pending--; p.pending == 0 {
				p.finishIteration()
			}
		}
	}
	p.startIteration()
}

func (p *pipeProcNode) Recv(_ *sim.Context, from msg.NodeID, m any) {
	p.pl.Deliver(int(from), m)
}

// failed reports whether a completion must be ignored: the run has stopped,
// or the operation failed — which records the error and stops the run.
func (p *pipeProcNode) failed(err error) bool {
	if err != nil && p.err == nil {
		p.err = fmt.Errorf("aco: proc %d: %w", p.idx, err)
		p.ctx.Stop()
	}
	return p.ctx.Stopped()
}

func (p *pipeProcNode) startIteration() {
	p.iterStart = p.ctx.Now()
	p.pending = p.m
	p.read(0)
}

// read submits register j's read and, unless the process is serial, the
// reads of every register after it.
func (p *pipeProcNode) read(j int) {
	for ; j < p.m; j++ {
		p.pl.ReadAsyncFunc(msg.RegisterID(j), p.readDone[j])
		if p.serial {
			return
		}
	}
}

// write submits owned component li's write and, unless the process is
// serial, the writes of every owned component after it.
func (p *pipeProcNode) write(li int) {
	for ; li < len(p.owned); li++ {
		p.pl.WriteAsyncFunc(msg.RegisterID(p.owned[li]), p.newVals[li], p.writeDone[li])
		if p.serial {
			return
		}
	}
}

// computePhase applies the operator to the completed view and writes the
// owned components.
func (p *pipeProcNode) computePhase() {
	for li, comp := range p.owned {
		p.newVals[li] = p.op.Apply(comp, p.view)
	}
	p.pending = len(p.owned)
	p.write(0)
}

func (p *pipeProcNode) finishIteration() {
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
	p.mon.iterationDone(p.ctx, p.idx, p.iterStart, correct)
	if p.ctx.Stopped() {
		return
	}
	p.startIteration()
}
