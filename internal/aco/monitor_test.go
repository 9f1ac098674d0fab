package aco

import (
	"errors"
	"testing"
	"time"

	"probquorum/internal/register"
	"probquorum/internal/replica"
)

// fakeClock is a monitor clock the test moves by hand.
type fakeClock struct{ now time.Duration }

func (c *fakeClock) Now() time.Duration { return c.now }

func (c *fakeClock) AfterFunc(time.Duration, func()) register.Timer { return nil }

// testMonitor returns a monitor on a fake clock and a count of its halts.
func testMonitor(procs, maxRounds int, stores []*replica.Store, crashes []CrashEvent) (*monitor, *fakeClock, *int) {
	mo := &monitor{
		stores: stores, crashes: crashes, maxRounds: maxRounds,
		correct: make([]bool, procs), inRound: make([]bool, procs),
	}
	clock, halts := &fakeClock{}, new(int)
	mo.clock, mo.halt = clock, func() { *halts++ }
	return mo, clock, halts
}

func TestMonitorAllCorrect(t *testing.T) {
	mo, _, halts := testMonitor(3, 100, nil, nil)
	for proc := 0; proc < 2; proc++ {
		if _, ok := mo.iterationDone(proc, 0, true); !ok {
			t.Fatal("stopped before every process is correct")
		}
	}
	if _, ok := mo.iterationDone(2, 0, true); ok {
		t.Fatal("not stopped with every process correct")
	}
	if !mo.converged || *halts != 1 {
		t.Fatalf("converged = %v after %d halts, want true after 1", mo.converged, *halts)
	}
	if mo.err != nil {
		t.Fatalf("err = %v on a clean run", mo.err)
	}
}

func TestMonitorFailStopsRun(t *testing.T) {
	mo, _, halts := testMonitor(3, 100, nil, nil)
	mo.iterationDone(0, 0, true)
	first := errors.New("proc 1: boom")
	if !mo.ignore(1, first) {
		t.Fatal("a failed completion was not ignored")
	}
	if *halts != 1 || mo.converged {
		t.Fatalf("after a failure: %d halts, converged = %v; want 1, false", *halts, mo.converged)
	}
	if !errors.Is(mo.err, first) {
		t.Fatalf("err = %v, want the failure", mo.err)
	}
	// Iterations, successes and later failures after the first failure are
	// ignored.
	for _, proc := range []int{1, 2} {
		if _, ok := mo.iterationDone(proc, 0, true); ok {
			t.Fatal("a process went on after the run stopped")
		}
	}
	if !mo.ignore(0, nil) {
		t.Fatal("a completion after the stop was not ignored")
	}
	if mo.converged {
		t.Fatal("reports after a failure flipped the run to converged")
	}
	mo.ignore(2, errors.New("proc 2: later"))
	if !errors.Is(mo.err, first) || *halts != 1 {
		t.Fatalf("first error not preserved: %v after %d halts", mo.err, *halts)
	}
}

func TestMonitorFailAfterConvergence(t *testing.T) {
	mo, _, _ := testMonitor(1, 100, nil, nil)
	mo.iterationDone(0, 0, true)
	if !mo.ignore(0, errors.New("too late")) {
		t.Fatal("a failure after convergence was not ignored")
	}
	if !mo.converged {
		t.Fatal("failure after convergence demoted the run")
	}
	if mo.err != nil {
		t.Fatalf("err = %v after convergence", mo.err)
	}
}

// TestMonitorRounds walks two processes through the round definition: an
// iteration that started before a round closed does not count toward the
// next one, and a partial final round counts.
func TestMonitorRounds(t *testing.T) {
	mo, clock, _ := testMonitor(2, 100, nil, nil)
	steps := []struct {
		now, start time.Duration
		proc       int
		correct    bool
		rounds     int
	}{
		{1, 0, 0, false, 0},
		{2, 0, 1, false, 1}, // closes round 1 at t=2
		{3, 1, 0, false, 1}, // started at 1, before round 2: does not count
		{4, 2, 1, false, 1},
		{5, 3, 0, true, 2}, // closes round 2 at t=5
		{6, 5, 1, true, 3}, // converges one iteration into round 3
	}
	for i, st := range steps {
		clock.now = st.now
		next, ok := mo.iterationDone(st.proc, st.start, st.correct)
		if mo.rounds != st.rounds {
			t.Fatalf("step %d: rounds = %d, want %d", i, mo.rounds, st.rounds)
		}
		if last := i == len(steps)-1; ok == last || (ok && next != st.now) {
			t.Fatalf("step %d: next = %v, ok = %v", i, next, ok)
		}
	}
	if !mo.converged || mo.iterations != int64(len(steps)) {
		t.Fatalf("converged = %v after %d iterations", mo.converged, mo.iterations)
	}
}

func TestMonitorMaxRoundsStops(t *testing.T) {
	mo, clock, halts := testMonitor(1, 2, nil, nil)
	var start time.Duration
	for i := 0; i < 2; i++ {
		clock.now++
		next, ok := mo.iterationDone(0, start, false)
		if want := i == 0; ok != want {
			t.Fatalf("iteration %d: ok = %v, want %v", i, ok, want)
		}
		start = next
	}
	if mo.converged || mo.rounds != 2 || *halts != 1 {
		t.Fatalf("converged = %v, rounds = %d, halts = %d; want false, 2, 1", mo.converged, mo.rounds, *halts)
	}
}

// TestMonitorProgressCrashes: AfterIteration events fire on process 0's
// completed iterations only, and not after the stop.
func TestMonitorProgressCrashes(t *testing.T) {
	stores := []*replica.Store{replica.New(0, nil), replica.New(1, nil)}
	mo, _, _ := testMonitor(2, 100, stores, []CrashEvent{
		{AfterIteration: 1, Server: 0},
		{AfterIteration: 2, Server: 0, Recover: true},
		{AfterIteration: 3, Server: 1},
	})
	mo.iterationDone(1, 0, false)
	if stores[0].Crashed() {
		t.Fatal("process 1's iteration fired process 0's event")
	}
	mo.iterationDone(0, 0, false)
	if !stores[0].Crashed() {
		t.Fatal("AfterIteration 1 did not crash server 0")
	}
	mo.iterationDone(0, 0, true)
	if stores[0].Crashed() {
		t.Fatal("AfterIteration 2 did not recover server 0")
	}
	mo.ignore(1, errors.New("boom"))
	mo.iterationDone(0, 0, false)
	if stores[1].Crashed() {
		t.Fatal("an event fired after the run stopped")
	}
}
