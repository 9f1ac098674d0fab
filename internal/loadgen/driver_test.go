package loadgen

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"probquorum/internal/msg"
	"probquorum/internal/register"
)

// fakeStore is the shared backing state a set of fakeTargets read and write
// — the stand-in for a replicated register system. Operations complete
// synchronously inside the AsyncFunc call, so under the virtual clock
// driver runs are deterministic and instant.
type fakeStore struct {
	mu     sync.Mutex
	regs   map[msg.RegisterID]msg.Tagged
	prev   map[msg.RegisterID]msg.Tagged // each key's value before its last write
	writes int
	atomic int
}

type fakeTarget struct {
	id    int32
	store *fakeStore
	// failEvery makes every Nth write fail after it took effect, as a write
	// whose acknowledgments were lost does (0 = never).
	failEvery int
	// staleEvery makes every Nth atomic read return its key's value before
	// the last write, which was acknowledged: a planted stale read (0 =
	// never).
	staleEvery int
}

func newFakeCluster(n int) []*fakeTarget {
	store := &fakeStore{regs: map[msg.RegisterID]msg.Tagged{}, prev: map[msg.RegisterID]msg.Tagged{}}
	targets := make([]*fakeTarget, n)
	for i := range targets {
		targets[i] = &fakeTarget{id: int32(i), store: store}
	}
	return targets
}

func (f *fakeTarget) ReadAsyncFunc(key msg.RegisterID, fn func(msg.Tagged, error)) *register.PendingOp {
	f.store.mu.Lock()
	tag := f.store.regs[key]
	f.store.mu.Unlock()
	fn(tag, nil)
	return nil
}

func (f *fakeTarget) ReadAtomicAsyncFunc(key msg.RegisterID, fn func(msg.Tagged, error)) *register.PendingOp {
	f.store.mu.Lock()
	f.store.atomic++
	tag := f.store.regs[key]
	if f.staleEvery > 0 && f.store.atomic%f.staleEvery == 0 {
		tag = f.store.prev[key]
	}
	f.store.mu.Unlock()
	fn(tag, nil)
	return nil
}

func (f *fakeTarget) WriteAsyncFunc(key msg.RegisterID, val msg.Value, fn func(msg.Tagged, error)) *register.PendingOp {
	f.store.mu.Lock()
	f.store.writes++
	tag := msg.Tagged{TS: msg.Timestamp{Seq: f.store.regs[key].TS.Seq + 1, Writer: f.id}, Val: val}
	f.store.prev[key] = f.store.regs[key]
	f.store.regs[key] = tag
	failed := f.failEvery > 0 && f.store.writes%f.failEvery == 0
	f.store.mu.Unlock()
	if failed {
		fn(msg.Tagged{}, errors.New("injected write failure"))
		return nil
	}
	fn(tag, nil)
	return nil
}

// cluster2 builds two targets over one shared store, as []Target for the
// variadic NewDriver.
func cluster2() []Target {
	cl := newFakeCluster(2)
	return []Target{cl[0], cl[1]}
}

func TestDriverHealthyRun(t *testing.T) {
	clock := &testClock{}
	d, err := NewDriver(Config{
		Rate:     1000,
		Duration: 2 * time.Second,
		Keys:     UniformKeys{N: 16},
		Seed:     42,
		Interval: 500 * time.Millisecond,
		Clock:    clock,
	}, cluster2()...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// 1000 op/s for 2 virtual seconds: ~2000 slots, all issued (nothing
	// sheds when completion is synchronous), all completed.
	if res.Issued < 1900 || res.Issued > 2100 {
		t.Fatalf("issued %d, want ~2000", res.Issued)
	}
	if res.Completed != res.Issued || res.Errors != 0 || res.Shed != 0 {
		t.Fatalf("completed %d errors %d shed %d, want %d/0/0", res.Completed, res.Errors, res.Shed, res.Issued)
	}
	if res.Total.Count() != res.Completed {
		t.Fatalf("histogram count %d != completed %d", res.Total.Count(), res.Completed)
	}
	if len(res.Intervals) < 3 {
		t.Fatalf("got %d intervals for a 2s run at 500ms, want >= 3", len(res.Intervals))
	}
	var kindIssued int64
	for _, ks := range res.Kinds {
		kindIssued += ks.Issued
	}
	if kindIssued != res.Issued {
		t.Fatalf("per-kind issued sums to %d, want %d", kindIssued, res.Issued)
	}
	// Every completed read, plain or atomic, went through the checker.
	reads := res.Kinds[OpRead.String()].Completed + res.Kinds[OpAtomicRead.String()].Completed
	if res.Check.Checked != reads || reads == 0 {
		t.Fatalf("checked %d reads, want the %d completed", res.Check.Checked, reads)
	}
	if n := res.Check.Violations(); n != 0 {
		t.Fatalf("%d violations on a healthy run: %s", n, res.Check)
	}
}

// The fake cluster's every fifth atomic read returns the value before its
// key's last write, which was acknowledged before the read was submitted:
// the run must report it, and only it.
func TestDriverReportsStaleAtomicRead(t *testing.T) {
	cl := newFakeCluster(2)
	for _, f := range cl {
		f.staleEvery = 5
	}
	d, err := NewDriver(Config{
		Rate:     1000,
		Duration: time.Second,
		Mix:      Mix{Read: 0.3, Write: 0.4, Atomic: 0.3},
		Keys:     UniformKeys{N: 8},
		Seed:     7,
		Clock:    &testClock{},
	}, cl[0], cl[1])
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	atomic := res.Kinds[OpAtomicRead.String()].Completed
	if atomic < 100 {
		t.Fatalf("only %d atomic reads completed", atomic)
	}
	// A planted read of a key never written returns the initial value, which
	// is not stale; every other planted read is.
	if res.Check.Stale == 0 || res.Check.Stale > atomic/5 {
		t.Fatalf("stale %d, want between 1 and %d (every fifth of %d atomic reads): %s",
			res.Check.Stale, atomic/5, atomic, res.Check)
	}
	if res.Check.Violations() != res.Check.Stale {
		t.Fatalf("violations other than the planted stale reads: %s", res.Check)
	}
	if !strings.HasPrefix(res.Check.First, "stale: atomic read of key") {
		t.Fatalf("first violation %q", res.Check.First)
	}
	if !strings.Contains(res.Summary(), "check: ") {
		t.Fatalf("summary has no verdict line:\n%s", res.Summary())
	}
}

// Every third write fails after it took effect, so reads return values whose
// writes were never acknowledged. Those writes were issued: no violation.
func TestDriverFailedWritesNoFalseAlarm(t *testing.T) {
	bad := newFakeCluster(1)[0]
	bad.failEvery = 3
	d, err := NewDriver(Config{
		Rate:     1000,
		Duration: time.Second,
		Mix:      Mix{Read: 0.1, Write: 0.8, Atomic: 0.1},
		Keys:     UniformKeys{N: 8},
		Seed:     9,
		Clock:    &testClock{},
	}, bad)
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors == 0 {
		t.Fatal("fault injection produced no errors")
	}
	if res.Check.Checked == 0 || res.Check.Violations() != 0 {
		t.Fatalf("verdict %s, want reads checked and no violation", res.Check)
	}
}

func TestDriverCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	d, err := NewDriver(Config{
		Rate:     100,
		Duration: time.Hour,
		Clock:    &testClock{},
	}, newFakeCluster(1)[0])
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Issued > 1 {
		t.Fatalf("issued %d ops after cancellation", res.Issued)
	}
}

func TestNewDriverValidation(t *testing.T) {
	if _, err := NewDriver(Config{Rate: 100, Duration: time.Second}); err == nil {
		t.Error("no targets accepted")
	}
	if _, err := NewDriver(Config{Rate: 0, Duration: time.Second}, newFakeCluster(1)[0]); err == nil {
		t.Error("zero rate accepted")
	}
	if _, err := NewDriver(Config{Rate: 100}, newFakeCluster(1)[0]); err == nil {
		t.Error("zero duration accepted")
	}
}
