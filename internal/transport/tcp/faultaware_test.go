package tcp

// The fault-aware fan-out over loopback sockets: a crashed store, a killed
// listener and a partitioned link under pipelined load.

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"probquorum/internal/faults"
	"probquorum/internal/metrics"
	"probquorum/internal/msg"
	"probquorum/internal/obs"
	"probquorum/internal/quorum"
	"probquorum/internal/trace"
	"probquorum/internal/transport"
)

const (
	faultOpTimeout = 250 * time.Millisecond
	// fastOp bounds an operation that must not have waited on a lost server:
	// a few round trips on loopback, with two orders of magnitude to spare
	// for a loaded CI host, and a fifth of the deadline it must not pay.
	fastOp = 50 * time.Millisecond
)

type opRec struct {
	start time.Time
	dur   time.Duration
}

// faultLoad is a steady pipelined load on one client: each worker owns a
// register and alternates a write with an atomic read that must return it.
type faultLoad struct {
	mu   sync.Mutex
	recs []opRec
	stop chan struct{}
	wg   sync.WaitGroup
}

func startFaultLoad(t *testing.T, c *Client, workers int) *faultLoad {
	l := &faultLoad{stop: make(chan struct{})}
	for w := 0; w < workers; w++ {
		l.wg.Add(1)
		go func(reg msg.RegisterID) {
			defer l.wg.Done()
			for i := 1; ; i++ {
				select {
				case <-l.stop:
					return
				default:
				}
				start := time.Now()
				err := c.Write(reg, float64(i))
				l.record(start)
				if err == nil {
					start = time.Now()
					var tag msg.Tagged
					if tag, err = c.ReadAtomic(reg); err == nil && tag.Val != float64(i) {
						err = errors.New("atomic read missed the write before it")
					}
					l.record(start)
				}
				if err != nil {
					t.Errorf("reg %d round %d: %v", reg, i, err)
					return
				}
				time.Sleep(200 * time.Microsecond)
			}
		}(msg.RegisterID(w))
	}
	return l
}

func (l *faultLoad) record(start time.Time) {
	d := time.Since(start)
	l.mu.Lock()
	l.recs = append(l.recs, opRec{start, d})
	l.mu.Unlock()
}

// finish stops the workers and returns every operation's record.
func (l *faultLoad) finish() []opRec {
	close(l.stop)
	l.wg.Wait()
	return l.recs
}

// waitFor polls cond every 100µs and returns when it first held; it fails
// the test after limit.
func waitFor(t *testing.T, limit time.Duration, what string, cond func() bool) time.Time {
	t.Helper()
	deadline := time.Now().Add(limit)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("%s: not within %v", what, limit)
		}
		time.Sleep(100 * time.Microsecond)
	}
	return time.Now()
}

func slowest(recs []opRec, since time.Time) (worst time.Duration, n int) {
	for _, r := range recs {
		if r.start.After(since) {
			n++
			worst = max(worst, r.dur)
		}
	}
	return worst, n
}

func checkAtomicTrace(t *testing.T, log *trace.Log) {
	t.Helper()
	ops := log.Ops()
	if err := trace.CheckPipelinedWellFormed(ops); err != nil {
		t.Fatal(err)
	}
	if err := trace.CheckReadsFrom(ops); err != nil {
		t.Fatal(err)
	}
	if err := trace.CheckAtomic(ops); err != nil {
		t.Fatal(err)
	}
}

func faultClient(t *testing.T, addrs []string) (*Client, *trace.Log, *metrics.TransportCounters) {
	t.Helper()
	log, tc := &trace.Log{}, &metrics.TransportCounters{}
	c, err := Dial(addrs, quorum.NewMajority(len(addrs)),
		WithOpTimeout(faultOpTimeout), WithTrace(log), WithTransportCounters(tc))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c, log, tc
}

// TestCrashCostsOneRoundTrip: a store crashing under load closes its
// connections; from the first such signal on, no operation waits for the
// crashed server and none spends a deadline. After it recovers a probe
// un-suspects it within two probe intervals and it serves reads again.
func TestCrashCostsOneRoundTrip(t *testing.T) {
	addrs, servers := pipeCluster(t, 5, nil)
	c, log, tc := faultClient(t, addrs)
	reg := obs.NewRegistry()
	c.RegisterHealth(reg, "client")
	load := startFaultLoad(t, c, 4)
	time.Sleep(50 * time.Millisecond)

	crashed := time.Now()
	servers[1].Store().Crash()
	suspected := waitFor(t, 2*time.Second, "first error event", func() bool { return tc.Suspicions.Value() > 0 })
	time.Sleep(200 * time.Millisecond)
	h := c.Keyspace().Health()[1]
	if !h.Suspected || h.Since.Before(crashed) || h.Since.After(suspected) || h.LastErr == nil {
		t.Errorf("health of the crashed server = %+v, want suspected between %v and %v with an error", h, crashed, suspected)
	}
	if snap := reg.Snapshot(); snap.Live() || snap.Health["client.1"].Live || snap.Health["client.1"].LastError == "" ||
		!snap.Health["client.0"].Live {
		t.Errorf("/healthz rows: %+v", snap.Health)
	}

	reads, _ := servers[1].Store().Stats()
	servers[1].Store().Recover()
	recovered := time.Now()
	limit := 2 * transport.ProbeInterval
	if raceEnabled {
		limit *= 3
	}
	cleared := waitFor(t, 2*time.Second, "un-suspecting the recovered server", func() bool { return !c.Keyspace().Health()[1].Suspected })
	if d := cleared.Sub(recovered); d > limit {
		t.Errorf("recovered server un-suspected after %v, want within %v", d, limit)
	}
	waitFor(t, 2*time.Second, "the recovered server serving reads", func() bool {
		now, _ := servers[1].Store().Stats()
		return now > reads+1 // more than the probe
	})

	recs := load.finish()
	if t.Failed() {
		return
	}
	if worst, n := slowest(recs, suspected); n == 0 || worst > fastOp {
		t.Errorf("slowest of %d operations issued after the first error event: %v, want ≤ %v", n, worst, fastOp)
	}
	if got := c.Keyspace().Retries(); got != 0 {
		t.Errorf("Retries = %d, want 0: the crash signal must not cost a deadline", got)
	}
	if tc.TopUps.Value() == 0 || tc.Probes.Value() == 0 {
		t.Errorf("top-ups = %d, probes = %d; want both > 0", tc.TopUps.Value(), tc.Probes.Value())
	}
	checkAtomicTrace(t, log)
}

// TestKilledListenerIsNotSilent kills a server outright — listener and
// connections — so that after the reader's error every re-dial is refused.
// Those refused bursts used to vanish without a trace; now each is a counted
// per-server error, and the load never waits on the dead server.
func TestKilledListenerIsNotSilent(t *testing.T) {
	addrs, servers := pipeCluster(t, 5, nil)
	c, log, tc := faultClient(t, addrs)
	load := startFaultLoad(t, c, 4)
	time.Sleep(50 * time.Millisecond)

	servers[1].Close()
	suspected := waitFor(t, 2*time.Second, "first error event", func() bool { return tc.Suspicions.Value() > 0 })
	// The probes' refused re-dials must surface as send errors.
	waitFor(t, 2*time.Second, "a refused re-dial reported as an error", func() bool {
		err := c.Keyspace().Health()[1].LastErr
		return err != nil && strings.HasPrefix(err.Error(), "send:") && tc.SendDrops.Value() > 0
	})
	time.Sleep(100 * time.Millisecond)

	recs := load.finish()
	if t.Failed() {
		return
	}
	if worst, n := slowest(recs, suspected); n == 0 || worst > fastOp {
		t.Errorf("slowest of %d operations issued after the first error event: %v, want ≤ %v", n, worst, fastOp)
	}
	if got := c.Keyspace().Retries(); got != 0 {
		t.Errorf("Retries = %d, want 0", got)
	}
	if !c.Keyspace().Health()[1].Suspected {
		t.Error("the dead server is no longer suspected")
	}
	checkAtomicTrace(t, log)
}

// TestPartitionCostsOneDeadline: a blocked link is silence, not an error.
// Operations caught by it finish within one deadline (plus a round trip to
// the replacement); once the first deadline has suspected the server,
// operations are fast again; healing the link un-suspects it.
func TestPartitionCostsOneDeadline(t *testing.T) {
	backends, _ := pipeCluster(t, 5, nil)
	addrs := make([]string, len(backends))
	links := make([]*faults.Link, len(backends))
	for i, b := range backends {
		l, err := faults.NewLink(b)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(l.Close)
		links[i], addrs[i] = l, l.Addr()
	}
	c, log, tc := faultClient(t, addrs)
	load := startFaultLoad(t, c, 4)
	time.Sleep(50 * time.Millisecond)

	links[1].SetBlocked(true)
	suspected := waitFor(t, 2*faultOpTimeout+time.Second, "first expired deadline", func() bool { return tc.Suspicions.Value() > 0 })
	time.Sleep(300 * time.Millisecond)
	links[1].SetBlocked(false)
	waitFor(t, 2*time.Second, "un-suspecting the healed server", func() bool { return !c.Keyspace().Health()[1].Suspected })

	recs := load.finish()
	if t.Failed() {
		return
	}
	if worst, _ := slowest(recs, time.Time{}); worst > faultOpTimeout+fastOp {
		t.Errorf("slowest operation %v, want ≤ one deadline + %v", worst, fastOp)
	}
	if worst, n := slowest(recs, suspected); n == 0 || worst > fastOp {
		t.Errorf("slowest of %d operations issued after the first expired deadline: %v, want ≤ %v", n, worst, fastOp)
	}
	// Only operations already in flight when the server went silent pay, one
	// deadline each: at most one per worker.
	if got := c.Keyspace().Retries(); got < 1 || got > 4 {
		t.Errorf("Retries = %d, want between 1 and the 4 operations in flight", got)
	}
	if tc.Timeouts.Value() == 0 || tc.TopUps.Value() == 0 {
		t.Errorf("timeouts = %d, top-ups = %d; want both > 0", tc.Timeouts.Value(), tc.TopUps.Value())
	}
	checkAtomicTrace(t, log)
}

// TestSendQueueFullIsAnError: a request that does not fit the connection's
// send queue is a failed hand-off — counted and returned, not dropped.
func TestSendQueueFullIsAnError(t *testing.T) {
	var tc metrics.TransportCounters
	// Never started: no writer drains the queue, nothing is dialed.
	tr := newTCPTransport([]string{"127.0.0.1:1"}, time.Second, &tc, defaultMaxBatch, nil)
	for i := 0; i < pipeOutBuffer; i++ {
		if err := tr.Send(0, msg.ReadReq{}); err != nil {
			t.Fatalf("send %d into an empty queue: %v", i, err)
		}
	}
	if err := tr.Send(0, msg.ReadReq{}); !errors.Is(err, errSendQueueFull) {
		t.Fatalf("send into a full queue: err = %v, want errSendQueueFull", err)
	}
	if got := tc.SendDrops.Value(); got != 1 {
		t.Fatalf("SendDrops = %d, want 1", got)
	}
}
