// Package loadgen is the open-loop load harness for the register stack: a
// fixed-rate pacer issues operations at their scheduled instants whether or
// not earlier operations have completed, which is what makes the measured
// latency honest under overload — a closed loop (like the in-repo
// benchmarks) slows its own request stream down when the system slows, and
// so systematically under-reports queueing delay (coordinated omission).
//
// The harness drives the sharded keyspace client's asynchronous seam
// (Target) so one goroutine can keep thousands of operations in flight,
// measures per-operation latency from scheduled-issue to completion in a
// log-linear histogram fine enough for p50/p99 frontiers, judges every read
// with the online register checker (trace.Online) as it completes, scrapes
// an obs registry per interval, and — under fault schedules from
// internal/faults — produces the latency-vs-offered-load frontier.
// cmd/loadgen is the CLI over this package.
package loadgen

import (
	"context"
	"time"
)

// Clock abstracts wall time so the pacer and driver run on virtual time in
// tests. Sleep returns false when the context is cancelled before d elapses.
type Clock interface {
	Now() time.Time
	Sleep(ctx context.Context, d time.Duration) bool
}

// WallClock is the production clock.
type WallClock struct{}

// Now returns time.Now.
func (WallClock) Now() time.Time { return time.Now() }

// Sleep waits d on a timer, bailing out when ctx is done first.
func (WallClock) Sleep(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
