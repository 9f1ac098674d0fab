package aco

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"probquorum/internal/register"
	"probquorum/internal/replica"
)

// monitor is the one convergence and round monitor of both runners. The run
// converges when every process's most recent iteration was correct. A round
// is the minimal contiguous window in which every process completes at least
// one full iteration that started within the window (paper, Sections 6.3 and
// 7); a partial final round counts. Completions report from any goroutine:
// every method takes the lock. The first failure stops the run and wins,
// and a completion that arrives after the stop is ignored.
type monitor struct {
	// clock stamps iterations and round boundaries and arms the crash
	// schedule: virtual time, or monotonic time since the processes started.
	// halt is called at the stop: sim.Sim.Stop, or a no-op over sockets,
	// where RunTCP waits for busy to drain. The runner sets both first.
	clock   register.Clock
	halt    func()
	stores  []*replica.Store
	crashes []CrashEvent
	// busy counts operations from submission until their completion
	// returns. A process submits its next operation before that return and
	// quits only after the stop, so busy is zero only once the job is quiet;
	// settle then hands idle, if set, a token.
	busy atomic.Int64
	idle chan struct{}

	mu         sync.Mutex
	stopped    bool
	err        error
	correct    []bool
	nCorrect   int
	roundStart time.Duration
	inRound    []bool
	nInRound   int
	rounds     int
	maxRounds  int
	converged  bool
	iterations int64
	progress   int // process 0's completed iterations, which AfterIteration counts
}

// settle ends an operation's completion.
func (mo *monitor) settle() {
	if mo.busy.Add(-1) == 0 && mo.idle != nil {
		select {
		case mo.idle <- struct{}{}:
		default:
		}
	}
}

// ignore reports whether an operation's completion must be ignored: the run
// has stopped, or the operation failed, which stops it.
func (mo *monitor) ignore(proc int, err error) bool {
	mo.mu.Lock()
	defer mo.mu.Unlock()
	if err != nil && !mo.stopped {
		mo.err = fmt.Errorf("aco: proc %d: %w", proc, err)
		mo.stopped = true
		mo.halt()
	}
	return mo.stopped
}

// iterationDone records process proc's iteration, started at start, and
// reports whether the process goes on to its next one, and its start. The
// start is read under the lock, so an iteration begun before a round closed
// is stamped before that round's end, whichever goroutine closed it.
func (mo *monitor) iterationDone(proc int, start time.Duration, correct bool) (next time.Duration, ok bool) {
	mo.mu.Lock()
	defer mo.mu.Unlock()
	if mo.stopped {
		return 0, false
	}
	mo.iterations++
	if proc == 0 {
		mo.progress++
		for _, ev := range mo.crashes {
			if ev.AfterIteration == mo.progress {
				ev.apply(mo.stores)
			}
		}
	}
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
		if mo.nInRound == len(mo.inRound) {
			mo.rounds++
			mo.roundStart = mo.clock.Now()
			clear(mo.inRound)
			mo.nInRound = 0
		}
	}
	if mo.nCorrect == len(mo.correct) {
		mo.converged = true
		if mo.nInRound > 0 {
			mo.rounds++ // convergence mid-round: the partial round counts
		}
	}
	if mo.converged || mo.rounds >= mo.maxRounds {
		mo.stopped = true
		mo.halt()
	}
	return mo.clock.Now(), !mo.stopped
}

// schedule arms the crash events keyed to time on the monitor's clock; the
// ones keyed to progress fire from iterationDone. An event that comes due
// after the stop is dropped, so no store changes under the final read-back.
func (mo *monitor) schedule() (timers []register.Timer) {
	for _, ev := range mo.crashes {
		if ev.AfterIteration == 0 {
			timers = append(timers, mo.clock.AfterFunc(ev.At, func() {
				mo.mu.Lock()
				defer mo.mu.Unlock()
				if !mo.stopped {
					ev.apply(mo.stores)
				}
			}))
		}
	}
	return timers
}

// CrashEvent schedules a replica crash or recovery, at a time or on the
// run's progress. Both runners honour both forms: RunSim in virtual time,
// RunTCP in wall-clock time since its processes started.
type CrashEvent struct {
	// At is the time of the event.
	At time.Duration
	// AfterIteration, if positive, fires the event when process 0 completes
	// that many iterations, instead of at At. Over sockets a wall-clock
	// offset races the run it is meant to interrupt — a job faster than the
	// offset never sees the fault — so progress is the form that lands
	// inside the run however fast the host is.
	AfterIteration int
	// Server is the replica index.
	Server int
	// Recover brings the server back instead of crashing it.
	Recover bool
}

func (ev CrashEvent) apply(stores []*replica.Store) {
	if ev.Recover {
		stores[ev.Server].Recover()
	} else {
		stores[ev.Server].Crash()
	}
}
