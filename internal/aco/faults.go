package aco

import (
	"fmt"
	"time"

	"probquorum/internal/msg"
	"probquorum/internal/replica"
	"probquorum/internal/sim"
)

// CrashEvent schedules a replica crash or recovery at a virtual time in a
// simulated execution (RunTCP: at a wall-clock offset, or on progress).
type CrashEvent struct {
	// At is the virtual time of the event.
	At time.Duration
	// AfterIteration, if positive, fires the event when worker 0 completes
	// that many iterations, instead of at At. RunTCP only: a wall-clock
	// offset races the run it is meant to interrupt — a job faster than the
	// offset never sees the fault. The simulator's clock is the run's own,
	// so it needs no such trigger and rejects one.
	AfterIteration int
	// Server is the replica index.
	Server int
	// Recover brings the server back instead of crashing it.
	Recover bool
}

// faultController is a simulator node that applies a crash schedule to the
// replica stores. It occupies a node id above all servers and processes and
// never exchanges protocol messages.
type faultController struct {
	stores []*replica.Store
	events []CrashEvent
}

var _ sim.TimerHandler = (*faultController)(nil)

func (f *faultController) Init(ctx *sim.Context) {
	for i, ev := range f.events {
		ctx.After(ev.At, i, nil)
	}
}

func (f *faultController) Recv(*sim.Context, msg.NodeID, any) {}

func (f *faultController) Timer(_ *sim.Context, kind int, _ any) {
	ev := f.events[kind]
	if ev.Recover {
		f.stores[ev.Server].Recover()
	} else {
		f.stores[ev.Server].Crash()
	}
}

// validateCrashes checks the schedule against the cluster size and the
// timeout requirement: crashed servers never reply, so operations can only
// make progress if they time out and retry with fresh quorums. progress
// admits AfterIteration triggers.
func validateCrashes(events []CrashEvent, servers int, opTimeout time.Duration, progress bool) error {
	if len(events) == 0 {
		return nil
	}
	if opTimeout <= 0 {
		return fmt.Errorf("aco: crash schedule requires OpTimeout > 0 (operations must retry)")
	}
	for i, ev := range events {
		if ev.Server < 0 || ev.Server >= servers {
			return fmt.Errorf("aco: crash event %d targets server %d of %d", i, ev.Server, servers)
		}
		if ev.At < 0 {
			return fmt.Errorf("aco: crash event %d has negative time", i)
		}
		if ev.AfterIteration < 0 || (ev.AfterIteration > 0 && !progress) {
			return fmt.Errorf("aco: crash event %d: AfterIteration %d (progress triggers are for RunTCP, and positive)", i, ev.AfterIteration)
		}
	}
	return nil
}
