package register_test

// Behaviour of the fault-aware fan-out over in-memory transports: a flapping
// server, and a silent one.

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"probquorum/internal/metrics"
	"probquorum/internal/msg"
	"probquorum/internal/quorum"
	"probquorum/internal/register"
	"probquorum/internal/rng"
)

// flappy is a loopback transport on which one server flaps: for period it
// answers, for the next period every request to it is lost and reported as a
// per-server error — a connection that keeps dying and coming back.
type flappy struct {
	*loopback
	flap   int
	period time.Duration
	start  time.Time
	sent   atomic.Int64
	lost   atomic.Int64
}

var errFlap = errors.New("flappy: connection reset")

func (f *flappy) Send(server int, req any) error {
	f.sent.Add(1)
	if server == f.flap && (time.Since(f.start)/f.period)%2 == 1 {
		f.lost.Add(1)
		f.sink(server, nil, errFlap)
		return nil
	}
	return f.loopback.Send(server, req)
}

// TestFlappingServerNoLivelock: a server that answers, then errors, every few
// milliseconds costs the operations that catch it in an error phase one
// top-up each. Nothing waits out a deadline, so a budget of three retries is
// never touched, nothing fails, and no operation sends to more than the n
// servers there are.
func TestFlappingServerNoLivelock(t *testing.T) {
	const (
		n       = 5
		workers = 4
		runFor  = 120 * time.Millisecond
	)
	tr := &flappy{loopback: newLoopback(n), flap: 2, period: 3 * time.Millisecond, start: time.Now()}
	var tc metrics.TransportCounters
	pl := clientOver(
		register.NewEngine(1, quorum.NewMajority(n), rng.Derive(1, "flappy.test")), tr,
		register.ApplyPipeline(register.Settings{OpTimeout: 40 * time.Millisecond, Retries: 3, Counters: &tc}))
	defer pl.Close(nil)

	var ops, failed, unavailable atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			reg := msg.RegisterID(w)
			for i := 0; time.Since(tr.start) < runFor; i++ {
				var err error
				if i%2 == 0 {
					err = pl.Write(reg, i)
				} else {
					var tag msg.Tagged
					if tag, err = pl.Read(reg); err == nil && tag.Val != i-1 {
						err = errors.New("read missed the preceding write")
					}
				}
				ops.Add(1)
				if err != nil {
					failed.Add(1)
					if errors.Is(err, register.ErrQuorumUnavailable) {
						unavailable.Add(1)
					}
					t.Errorf("worker %d op %d: %v", w, i, err)
					return
				}
				time.Sleep(100 * time.Microsecond)
			}
		}(w)
	}
	wg.Wait()

	if failed.Load() != 0 || unavailable.Load() != 0 {
		t.Fatalf("%d of %d operations failed (%d with ErrQuorumUnavailable)", failed.Load(), ops.Load(), unavailable.Load())
	}
	if tr.lost.Load() == 0 || tc.TopUps.Value() == 0 {
		t.Fatalf("the flap was not exercised: %d requests lost, %d top-ups", tr.lost.Load(), tc.TopUps.Value())
	}
	if got := pl.Retries(); got != 0 {
		t.Errorf("Retries = %d: an error signal must not cost a deadline", got)
	}
	if sent, bound := tr.sent.Load(), ops.Load()*n; sent > bound {
		t.Errorf("%d sends for %d operations exceeds ops × n = %d", sent, ops.Load(), bound)
	}
	if tc.Suspicions.Value() == 0 || tc.Probes.Value() == 0 {
		t.Errorf("suspicions = %d, probes = %d; want both > 0", tc.Suspicions.Value(), tc.Probes.Value())
	}
	for srv, h := range pl.Health() {
		if srv != tr.flap && (h.Suspected || h.LastErr != nil) {
			t.Errorf("healthy server %d reported %+v", srv, h)
		}
	}
	if h := pl.Health()[tr.flap]; !errors.Is(h.LastErr, errFlap) {
		t.Errorf("flapping server's last error = %v", h.LastErr)
	}
}

// mute is a loopback transport on which one server accepts requests and
// never answers while silent is set — a partition, not a crash: no error is
// ever delivered.
type mute struct {
	*loopback
	server int
	silent atomic.Bool
	toMute atomic.Int64
}

func (m *mute) Send(server int, req any) error {
	if server == m.server {
		m.toMute.Add(1)
		if m.silent.Load() {
			return nil
		}
	}
	return m.loopback.Send(server, req)
}

// TestSilentServerCostsOneDeadline: with no error signal the deadline is what
// notices. The operation in flight tops up its silent member at the deadline
// (one retry, one timeout, one top-up — not a restart: the op id stays and so
// do the two replies it had), the server is suspected, and later operations
// finish without waiting; after the server heals a probe un-suspects it.
func TestSilentServerCostsOneDeadline(t *testing.T) {
	const deadline = 60 * time.Millisecond
	tr := &mute{loopback: newLoopback(5), server: 0}
	var tc metrics.TransportCounters
	// k = 4 of 5 rather than a majority: four of every five quorums contain
	// server 0, so the first operation below meets it within a few draws.
	pl := clientOver(
		register.NewEngine(1, quorum.NewProbabilistic(5, 4), rng.Derive(2, "mute.test")), tr,
		register.ApplyPipeline(register.Settings{OpTimeout: deadline, Counters: &tc}))
	defer pl.Close(nil)
	if err := pl.Write(0, "v"); err != nil {
		t.Fatal(err)
	}

	tr.silent.Store(true)
	var slow time.Duration
	for i := 0; slow == 0; i++ {
		if i == 50 {
			t.Fatal("50 quorums of 4 in 5 never included server 0")
		}
		start := time.Now()
		if _, err := pl.Read(0); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(start); d >= deadline {
			slow = d
		}
	}
	if slow > 2*deadline {
		t.Errorf("the operation that met the silent server took %v, want about one deadline (%v)", slow, deadline)
	}
	if r, to, tu := pl.Retries(), tc.Timeouts.Value(), tc.TopUps.Value(); r != 1 || to != 1 || tu != 1 {
		t.Errorf("retries = %d, timeouts = %d, top-ups = %d; want 1, 1, 1", r, to, tu)
	}
	if !pl.Health()[0].Suspected {
		t.Fatal("the silent server is not suspected")
	}

	before := tr.toMute.Load()
	start := time.Now()
	for i := 0; i < 40; i++ {
		if _, err := pl.Read(0); err != nil {
			t.Fatal(err)
		}
	}
	if d := time.Since(start); d >= deadline {
		t.Errorf("40 reads after the suspicion took %v: they still waited on the silent server", d)
	}
	if pl.Retries() != 1 {
		t.Errorf("Retries = %d after the suspicion, want still 1", pl.Retries())
	}
	// Only probes reach the silent server now, at most one per interval.
	if got := tr.toMute.Load() - before; got > 2 {
		t.Errorf("%d requests went to the suspected server during 40 fast reads", got)
	}

	tr.silent.Store(false)
	healBy := time.Now().Add(2 * time.Second)
	for pl.Health()[0].Suspected {
		if time.Now().After(healBy) {
			t.Fatal("the healed server was never un-suspected")
		}
		if _, err := pl.Read(0); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	if tc.Probes.Value() == 0 {
		t.Error("the suspicion cleared without a probe")
	}
}

// lossy is a loopback transport on which some servers are down: every
// request to one of them is lost and reported as a per-server error, the
// way a TCP client's refused re-dial is.
type lossy struct {
	*loopback
	down map[int]bool
}

var errDown = errors.New("lossy: connection refused")

func (l *lossy) Send(server int, req any) error {
	if l.down[server] {
		l.sink(server, nil, errDown)
		return nil
	}
	return l.loopback.Send(server, req)
}

// readWithin reads register 0 through a pipeline without a deadline over tr,
// failing the test rather than hanging if the read has not returned within
// a second.
func readWithin(t *testing.T, sys quorum.System, tr *lossy) error {
	t.Helper()
	pl := clientOver(register.NewEngine(1, sys, rng.Derive(4, "lossy.test")), tr)
	defer pl.Close(nil)
	done := make(chan error, 1)
	go func() { _, err := pl.Read(0); done <- err }()
	select {
	case err := <-done:
		return err
	case <-time.After(time.Second):
		t.Fatal("a read without a deadline hung on a member loss it could not replace")
		return nil
	}
}

// TestLossWithoutDeadlineFailsUnreplaceable: over all-of-3 quorums no member
// has a replacement, so with no deadline to wait for, the loss of server 1
// fails the read with that member's error.
func TestLossWithoutDeadlineFailsUnreplaceable(t *testing.T) {
	tr := &lossy{loopback: newLoopback(3), down: map[int]bool{1: true}}
	err := readWithin(t, quorum.NewAll(3), tr)
	if !errors.Is(err, errDown) || !strings.Contains(err.Error(), "server 1") {
		t.Fatalf("read err = %v, want server 1's %v", err, errDown)
	}
}

// TestLossWithoutDeadlineFailsWithNoCandidate: over majorities of 3 with two
// servers down, the first loss is replaced by the other downed server, whose
// loss then leaves no candidate — and with no deadline the read fails with
// that member's error instead of waiting for ever.
func TestLossWithoutDeadlineFailsWithNoCandidate(t *testing.T) {
	tr := &lossy{loopback: newLoopback(3), down: map[int]bool{1: true, 2: true}}
	if err := readWithin(t, quorum.NewMajority(3), tr); !errors.Is(err, errDown) {
		t.Fatalf("read err = %v, want %v", err, errDown)
	}
}
