package aco

import (
	"fmt"
	"sync"
	"time"

	"probquorum/internal/metrics"
	"probquorum/internal/msg"
	"probquorum/internal/obs"
	"probquorum/internal/quorum"
	"probquorum/internal/register"
	"probquorum/internal/replica"
	"probquorum/internal/rng"
	"probquorum/internal/trace"
	"probquorum/internal/transport/tcp"
)

// TCPConfig configures an execution of Alg. 1 over real TCP loopback
// sockets: real concurrency, where the simulator gives virtual time, rounds
// and exact replay.
type TCPConfig struct {
	// Op is the iterative algorithm to run.
	Op Operator
	// Target is the precomputed fixed point; nil computes it synchronously,
	// unless Correct is set.
	Target []msg.Value
	// Servers is the number of replica servers, each on its own loopback
	// listener.
	Servers int
	// Procs is the number of worker goroutines; defaults to Op.M(). Each is
	// an engine of its own (writer identity, pick stream, monotone cache) on
	// the job's one connection set, so a job holds one socket per server
	// whatever the worker count.
	Procs int
	// System is the quorum system for every worker.
	System quorum.System
	// Monotone selects the monotone register variant.
	Monotone bool
	// Seed seeds quorum selection.
	Seed uint64
	// MaxIterations caps each worker's loop; 0 means 10000.
	MaxIterations int
	// DriverConfig carries the per-operation deadline and retry budget
	// shared with the simulator runner. OpTimeout is required
	// when Crashes is non-empty: a crashed server can only be waited out or
	// replaced. Exhausting Retries surfaces register.ErrQuorumUnavailable.
	DriverConfig
	// Crashes schedules replica crashes and recoveries at wall-clock
	// offsets from the start of the worker phase — the TCP analogue of
	// SimConfig.Crashes (CrashEvent.At is real elapsed time here, not
	// virtual time) — or, with CrashEvent.AfterIteration, on worker 0's
	// progress.
	Crashes []CrashEvent
	// Pipelined submits the m reads of an iteration at once (then the
	// owned writes), so they overlap their quorum round-trips over the
	// multiplexed, batch-framed connections. Without it each operation is
	// waited on before the next is submitted: one pending operation per
	// process, the paper's model.
	Pipelined bool
	// Trace optionally records every register operation.
	Trace *trace.Log
	// Gauge, if non-nil, tracks the workers' in-flight operation count.
	Gauge *metrics.Gauge
	// BatchHist, if non-nil, records the size of every flushed batch frame.
	BatchHist *metrics.IntHistogram
	// Obs, if non-nil, makes the run self-reporting: the fault counters, a
	// per-phase operation observer, a per-server access tally, per-server
	// health probes, the in-flight gauge and the batch-size histogram all
	// register into it under "tcp.*" names. Pair with
	// obs.Serve to watch a long fault run live; the result carries a final
	// Snapshot.
	Obs *obs.Registry
	// Correct, if non-nil, replaces the fixed-point comparison as the
	// per-worker convergence test (see SimConfig.Correct). Target may then
	// be nil.
	Correct func(owned []int, newVals, view []msg.Value) bool
}

// TCPResult reports a TCP execution's outcome.
type TCPResult struct {
	// Converged reports whether all workers' components matched the fixed
	// point simultaneously.
	Converged bool
	// Iterations is the total worker loop iterations.
	Iterations int64
	// Messages is the total message count: requests sent plus replies
	// received, batch frames counted per element.
	Messages int64
	// CacheHits counts monotone reads served from the workers' caches.
	CacheHits int64
	// Elapsed is the wall-clock duration.
	Elapsed time.Duration
	// Final is the register contents read back from the replicas.
	Final []msg.Value
	// Retries counts operation deadlines that spent retry budget.
	Retries int64
	// Timeouts counts members still silent at an operation deadline, plus
	// socket writes that hit theirs.
	Timeouts int64
	// Reconnects counts dead connections that were re-dialed.
	Reconnects int64
	// TopUps counts quorum members replaced inside a live attempt — what a
	// crash the transport signals costs instead of a retry.
	TopUps int64
	// Snapshot is the final state of Config.Obs at the end of the run; nil
	// when no registry was attached.
	Snapshot *obs.Snapshot
}

// convergenceTracker coordinates the workers' stopping condition: the run is
// done when every worker's most recent iteration produced correct values —
// or when any worker fails, which releases the others promptly instead of
// letting them spin to their iteration cap.
type convergenceTracker struct {
	mu      sync.Mutex
	correct []bool
	n       int
	done    chan struct{}
	closed  bool
	failure error
}

func newConvergenceTracker(p int) *convergenceTracker {
	return &convergenceTracker{correct: make([]bool, p), done: make(chan struct{})}
}

func (t *convergenceTracker) report(proc int, correct bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return
	}
	if correct != t.correct[proc] {
		t.correct[proc] = correct
		if correct {
			t.n++
		} else {
			t.n--
		}
	}
	if t.n == len(t.correct) {
		t.closed = true
		close(t.done)
	}
}

// fail aborts the run: it records the first worker failure and closes the
// done channel so every other worker's loop condition stops it on its next
// iteration. Later failures are dropped (first error wins).
func (t *convergenceTracker) fail(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return
	}
	t.closed = true
	t.failure = err
	close(t.done)
}

// err returns the failure that aborted the run, if any.
func (t *convergenceTracker) err() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.failure
}

// converged reports whether the run completed because every worker was
// simultaneously correct (as opposed to a failure or an iteration cap).
func (t *convergenceTracker) converged() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.closed && t.failure == nil
}

func (t *convergenceTracker) isDone() bool {
	select {
	case <-t.done:
		return true
	default:
		return false
	}
}

// RunTCP executes Alg. 1 with workers talking to replica servers over TCP.
func RunTCP(cfg TCPConfig) (TCPResult, error) {
	op := cfg.Op
	m := op.M()
	procs := cfg.Procs
	if procs == 0 {
		procs = m
	}
	if err := validateCrashes(cfg.Crashes, cfg.Servers, cfg.OpTimeout, true); err != nil {
		return TCPResult{}, err
	}
	target := cfg.Target
	if target == nil && cfg.Correct == nil {
		fp, _, err := FixedPoint(op, 0)
		if err != nil {
			return TCPResult{}, fmt.Errorf("computing fixed point: %w", err)
		}
		target = fp
	}
	part := BlockPartition(m, procs)
	if err := part.Validate(); err != nil {
		return TCPResult{}, err
	}
	maxIters := cfg.MaxIterations
	if maxIters <= 0 {
		maxIters = 10000
	}

	initial := make(map[msg.RegisterID]msg.Value, m)
	for i, v := range op.Initial() {
		initial[msg.RegisterID(i)] = v
	}
	stores := make([]*replica.Store, cfg.Servers)
	addrs := make([]string, cfg.Servers)
	for i := 0; i < cfg.Servers; i++ {
		stores[i] = replica.New(msg.NodeID(i), initial)
		srv, err := tcp.Listen(stores[i], "127.0.0.1:0")
		if err != nil {
			return TCPResult{}, err
		}
		defer srv.Close()
		addrs[i] = srv.Addr()
		if cfg.Obs != nil {
			srv.RegisterHealth(cfg.Obs, fmt.Sprintf("tcp.server.%d", i))
		}
	}

	counters := &metrics.TransportCounters{}
	var observer *register.Observer
	var tally *metrics.AccessTally
	if cfg.Obs != nil {
		counters.Register("tcp.client", cfg.Obs)
		observer = new(register.Observer).Register("tcp.client", cfg.Obs)
		tally = metrics.NewAccessTally(cfg.Servers).Register("tcp.client.access", cfg.Obs)
		if cfg.Gauge == nil {
			cfg.Gauge = &metrics.Gauge{}
		}
		cfg.Gauge.Register("tcp.client.inflight", cfg.Obs)
		if cfg.BatchHist == nil {
			cfg.BatchHist = metrics.NewIntHistogram()
		}
		cfg.BatchHist.Register("tcp.client.batch_size", cfg.Obs)
	}
	// Unset instruments are nil and a zero OpTimeout keeps the transport's
	// default deadline, so every setter can be passed unconditionally.
	opts := []tcp.ClientOption{
		tcp.WithTransportCounters(counters), tcp.WithOpTimeout(cfg.OpTimeout), tcp.WithRetries(cfg.Retries),
		tcp.WithTrace(cfg.Trace), tcp.WithObserver(observer), tcp.WithTally(tally),
		tcp.WithInFlightGauge(cfg.Gauge), tcp.WithBatchHistogram(cfg.BatchHist),
	}
	if cfg.Monotone {
		opts = append(opts, tcp.WithMonotone())
	}
	// One connection set for the job, one engine on it per worker: the
	// workers are the paper's processes, each with its own writer identity,
	// pick stream and monotone cache, sharing one socket per replica.
	engines := make([][]tcp.ClientOption, procs)
	for pi := range engines {
		engines[pi] = []tcp.ClientOption{
			tcp.WithWriter(int32(pi + 1)),
			// Labeled derivation keeps the per-proc streams independent
			// even across nearby base seeds (a linear "seed + pi*const"
			// collides: base 1 proc 1 equals base 132 proc 0).
			tcp.WithSeed(rng.Derive(cfg.Seed, fmt.Sprintf("tcp.proc.%d", pi)).Uint64()),
		}
	}
	set, err := tcp.DialSet(addrs, cfg.System, 1, engines, opts...)
	if err != nil {
		return TCPResult{}, err
	}
	defer set.Close()

	tracker := newConvergenceTracker(procs)
	iters := make([]int64, procs)
	errs := make([]error, procs)
	start := time.Now()

	// Apply the crash schedule: progress events from worker 0's loop, the
	// rest on wall-clock timers. The stop channel both cancels unfired
	// events when the run ends early and ensures no store mutation races
	// with the final read-back below.
	apply := func(ev CrashEvent) {
		if ev.Recover {
			stores[ev.Server].Recover()
		} else {
			stores[ev.Server].Crash()
		}
	}
	stopFaults := make(chan struct{})
	var faultWG sync.WaitGroup
	for _, ev := range cfg.Crashes {
		if ev.AfterIteration > 0 {
			continue
		}
		faultWG.Add(1)
		go func() {
			defer faultWG.Done()
			t := time.NewTimer(ev.At)
			defer t.Stop()
			select {
			case <-t.C:
				apply(ev)
			case <-stopFaults:
			}
		}()
	}

	var wg sync.WaitGroup
	for pi := 0; pi < procs; pi++ {
		wg.Add(1)
		go func(pi int) {
			defer wg.Done()
			w := newWorker(set.Engine(pi), cfg.Pipelined, m, part.Owned(pi))
			for iter := 0; iter < maxIters && !tracker.isDone(); iter++ {
				if err := w.iterate(op); err != nil {
					errs[pi] = err
					tracker.fail(fmt.Errorf("tcp worker %d: %w", pi, err))
					return
				}
				iters[pi]++
				if pi == 0 {
					for _, ev := range cfg.Crashes {
						if ev.AfterIteration == int(iters[0]) {
							apply(ev)
						}
					}
				}
				if cfg.Correct != nil {
					tracker.report(pi, cfg.Correct(w.owned, w.next, w.view))
				} else {
					tracker.report(pi, w.atTarget(op, target))
				}
			}
		}(pi)
	}
	wg.Wait()
	close(stopFaults)
	faultWG.Wait()
	elapsed := time.Since(start)
	for pi, err := range errs {
		if err != nil {
			return TCPResult{}, fmt.Errorf("tcp worker %d: %w", pi, err)
		}
	}
	var total, hits int64
	for pi, n := range iters {
		total += n
		hits += set.Engine(pi).Keyspace().CacheHits()
	}
	final := make([]msg.Value, m)
	for i := 0; i < m; i++ {
		best := stores[0].Get(msg.RegisterID(i))
		for _, st := range stores[1:] {
			best = msg.MaxTagged(best, st.Get(msg.RegisterID(i)))
		}
		final[i] = best.Val
	}
	retries, timeouts, reconnects := counters.Snapshot()
	sent, recv := counters.Messages()
	res := TCPResult{
		Converged:  tracker.converged(),
		Iterations: total,
		Messages:   sent + recv,
		CacheHits:  hits,
		Elapsed:    elapsed,
		Final:      final,
		Retries:    retries,
		Timeouts:   timeouts,
		Reconnects: reconnects,
		TopUps:     counters.TopUps.Value(),
	}
	if cfg.Obs != nil {
		snap := cfg.Obs.Snapshot()
		res.Snapshot = &snap
	}
	return res, nil
}
