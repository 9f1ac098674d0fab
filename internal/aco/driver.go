package aco

import (
	"time"

	"probquorum/internal/msg"
	"probquorum/internal/register"
	"probquorum/internal/transport/tcp"
)

// DriverConfig is the transport-facing half of a runner configuration,
// shared verbatim by the simulator and TCP drivers: how long one register
// operation attempt may run, and how many attempts it gets. Embedding it
// keeps the two runner configs aligned — an experiment moved between
// runtimes carries these knobs unchanged.
type DriverConfig struct {
	// OpTimeout, when positive, bounds each operation attempt; an attempt
	// that misses the deadline is reissued on a freshly picked quorum.
	// Required when crashes are injected: crashed servers are silent.
	OpTimeout time.Duration
	// Retries caps the attempts per operation (0 = unlimited); an operation
	// that exhausts the budget fails with register.ErrQuorumUnavailable.
	Retries int
}

// worker is one process of Alg. 1 over TCP: its register client and the
// per-iteration buffers its loop reuses.
type worker struct {
	cl        *tcp.Client
	pipelined bool
	owned     []int
	view      []msg.Value // the m components read this iteration
	next      []msg.Value // the owned components' new values
	reads     []*register.PendingOp
	writes    []*register.PendingOp
}

func newWorker(cl *tcp.Client, pipelined bool, m int, owned []int) *worker {
	return &worker{
		cl: cl, pipelined: pipelined, owned: owned,
		view: make([]msg.Value, m), next: make([]msg.Value, len(owned)),
		reads: make([]*register.PendingOp, m), writes: make([]*register.PendingOp, len(owned)),
	}
}

// iterate runs one iteration: read all m components, apply op to the owned
// ones and write them back. A serial worker waits for each operation before
// it submits the next — one pending operation per process, the paper's
// model; a pipelined one submits all m reads (then the owned writes) at once,
// so their quorum round-trips overlap and their requests coalesce.
func (w *worker) iterate(op Operator) error {
	for j := range w.reads {
		w.reads[j] = w.cl.ReadAsync(msg.RegisterID(j))
		if err := w.pace(w.reads[j]); err != nil {
			return err
		}
	}
	for j, r := range w.reads {
		tag, err := r.Wait()
		if err != nil {
			return err
		}
		w.view[j] = tag.Val
	}
	for li, comp := range w.owned {
		w.next[li] = op.Apply(comp, w.view)
		w.writes[li] = w.cl.WriteAsync(msg.RegisterID(comp), w.next[li])
		if err := w.pace(w.writes[li]); err != nil {
			return err
		}
	}
	for _, wr := range w.writes {
		if _, err := wr.Wait(); err != nil {
			return err
		}
	}
	return nil
}

// pace waits for o when the worker is serial.
func (w *worker) pace(o *register.PendingOp) error {
	if w.pipelined {
		return nil
	}
	_, err := o.Wait()
	return err
}

// atTarget reports whether every owned component's new value equals its
// fixed-point value.
func (w *worker) atTarget(op Operator, target []msg.Value) bool {
	for li, comp := range w.owned {
		if !op.Equal(comp, w.next[li], target[comp]) {
			return false
		}
	}
	return true
}
