package aco

import (
	"fmt"
	"sync"
	"time"

	"probquorum/internal/cluster"
	"probquorum/internal/metrics"
	"probquorum/internal/msg"
	"probquorum/internal/quorum"
	"probquorum/internal/register"
	"probquorum/internal/rng"
	"probquorum/internal/trace"
)

// ConcurrentConfig configures an execution of Alg. 1 on the goroutine
// runtime: real concurrency instead of simulated time. The experiments that
// measure rounds use the simulator (rounds are a virtual-time notion); this
// runner demonstrates and tests the same algorithm as a deployable program.
type ConcurrentConfig struct {
	// Op is the iterative algorithm to run.
	Op Operator
	// Target is the precomputed fixed point; nil computes it synchronously.
	Target []msg.Value
	// Servers is the number of replica servers.
	Servers int
	// Procs is the number of worker processes; defaults to Op.M().
	Procs int
	// System is the quorum system for every worker.
	System quorum.System
	// Monotone selects the monotone register variant.
	Monotone bool
	// Delay optionally injects artificial message delays.
	Delay rng.Dist
	// Seed seeds delay sampling and quorum selection.
	Seed uint64
	// MaxIterations caps each worker's loop; 0 means 100000.
	MaxIterations int
	// DriverConfig carries the per-operation deadline and retry budget
	// shared with the simulator and TCP runners. OpTimeout is required to
	// ride out server crashes injected via Faults.
	DriverConfig
	// Faults, if non-nil, is called with the running cluster right after
	// the clients are connected and before the workers start — the hook
	// for crash, partition, and Byzantine injection.
	Faults func(c *cluster.Cluster)
	// Masking, when positive, enables b-masking reads with b = Masking,
	// defending the workers against Byzantine servers injected via Faults.
	Masking int
	// Pipelined runs each worker through a pipelined client: the m reads
	// of an iteration are submitted at once and overlap their quorum
	// round-trips, as do the writes of the owned components.
	Pipelined bool
	// Gauge, if non-nil, tracks the pipelined workers' in-flight operation
	// count; its high-watermark is how tests assert genuine overlap.
	Gauge *metrics.Gauge
	// Trace optionally records every register operation.
	Trace *trace.Log
	// Correct, if non-nil, replaces the fixed-point comparison as the
	// per-worker convergence test (see SimConfig.Correct). Target may then
	// be nil.
	Correct func(owned []int, newVals, view []msg.Value) bool
}

// ConcurrentResult reports a concurrent execution's outcome.
type ConcurrentResult struct {
	// Converged reports whether all workers' components matched the fixed
	// point simultaneously.
	Converged bool
	// Iterations is the total number of loop iterations across workers.
	Iterations int64
	// Messages is the total message count.
	Messages int64
	// Elapsed is the wall-clock duration of the run.
	Elapsed time.Duration
	// CacheHits counts monotone reads served from client caches.
	CacheHits int64
	// Final is the register contents at the end of the run: for each
	// component, the maximum-timestamp value across all replicas.
	Final []msg.Value
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

// RunConcurrent executes Alg. 1 on the goroutine runtime and returns the
// measured result.
func RunConcurrent(cfg ConcurrentConfig) (ConcurrentResult, error) {
	op := cfg.Op
	m := op.M()
	procs := cfg.Procs
	if procs == 0 {
		procs = m
	}
	target := cfg.Target
	if target == nil && cfg.Correct == nil {
		fp, _, err := FixedPoint(op, 0)
		if err != nil {
			return ConcurrentResult{}, fmt.Errorf("computing fixed point: %w", err)
		}
		target = fp
	}
	part := BlockPartition(m, procs)
	if err := part.Validate(); err != nil {
		return ConcurrentResult{}, err
	}
	maxIters := cfg.MaxIterations
	if maxIters <= 0 {
		maxIters = 100000
	}

	initial := op.Initial()
	regInit := make(map[msg.RegisterID]msg.Value, m)
	for i, v := range initial {
		regInit[msg.RegisterID(i)] = v
	}
	c, err := cluster.New(cluster.Config{
		Servers: cfg.Servers,
		Initial: regInit,
		Delay:   cfg.Delay,
		Seed:    cfg.Seed,
	})
	if err != nil {
		return ConcurrentResult{}, err
	}
	defer c.Close()

	clients := make([]*cluster.Client, procs)
	pipeClients := make([]*cluster.PipeClient, procs)
	for pi := 0; pi < procs; pi++ {
		opts := []cluster.ClientOption{}
		if cfg.Monotone {
			opts = append(opts, cluster.WithMonotone())
		}
		if cfg.Trace != nil {
			opts = append(opts, cluster.WithTrace(cfg.Trace))
		}
		if cfg.OpTimeout > 0 {
			opts = append(opts, cluster.WithOpTimeout(cfg.OpTimeout), cluster.WithRetries(cfg.Retries))
		}
		if cfg.Masking > 0 {
			opts = append(opts, cluster.WithMasking(cfg.Masking))
		}
		if cfg.Pipelined {
			if cfg.Gauge != nil {
				opts = append(opts, cluster.WithInFlightGauge(cfg.Gauge))
			}
			pc, err := c.NewPipeline(cfg.System, opts...)
			if err != nil {
				return ConcurrentResult{}, err
			}
			defer pc.Close()
			pipeClients[pi] = pc
			continue
		}
		cl, err := c.NewClient(cfg.System, opts...)
		if err != nil {
			return ConcurrentResult{}, err
		}
		clients[pi] = cl
	}
	if cfg.Faults != nil {
		cfg.Faults(c)
	}

	tracker := newConvergenceTracker(procs)
	iters := make([]int64, procs)
	errs := make([]error, procs)
	start := time.Now()

	var wg sync.WaitGroup
	for pi := 0; pi < procs; pi++ {
		wg.Add(1)
		go func(pi int) {
			defer wg.Done()
			owned := part.Owned(pi)
			view := make([]msg.Value, m)
			newVals := make([]msg.Value, len(owned))
			readOps := make([]*register.PendingOp, m)
			writeOps := make([]*register.PendingOp, len(owned))
			for iter := 0; iter < maxIters && !tracker.isDone(); iter++ {
				if cfg.Pipelined {
					// Submit all m reads at once; their quorum round-trips
					// overlap inside the pipeline.
					pc := pipeClients[pi]
					for j := 0; j < m; j++ {
						readOps[j] = pc.ReadAsync(msg.RegisterID(j))
					}
					for j, rop := range readOps {
						tag, err := rop.Wait()
						if err != nil {
							errs[pi] = err
							tracker.fail(fmt.Errorf("worker %d: %w", pi, err))
							return
						}
						view[j] = tag.Val
					}
					for li, comp := range owned {
						newVals[li] = op.Apply(comp, view)
						writeOps[li] = pc.WriteAsync(msg.RegisterID(comp), newVals[li])
					}
					for _, wop := range writeOps {
						if _, err := wop.Wait(); err != nil {
							errs[pi] = err
							tracker.fail(fmt.Errorf("worker %d: %w", pi, err))
							return
						}
					}
				} else {
					cl := clients[pi]
					for j := 0; j < m; j++ {
						tag, err := cl.Read(msg.RegisterID(j))
						if err != nil {
							errs[pi] = err
							tracker.fail(fmt.Errorf("worker %d: %w", pi, err))
							return
						}
						view[j] = tag.Val
					}
					for li, comp := range owned {
						newVals[li] = op.Apply(comp, view)
						if err := cl.Write(msg.RegisterID(comp), newVals[li]); err != nil {
							errs[pi] = err
							tracker.fail(fmt.Errorf("worker %d: %w", pi, err))
							return
						}
					}
				}
				var correct bool
				if cfg.Correct != nil {
					correct = cfg.Correct(owned, newVals, view)
				} else {
					correct = true
					for li, comp := range owned {
						if !op.Equal(comp, newVals[li], target[comp]) {
							correct = false
							break
						}
					}
				}
				iters[pi]++
				tracker.report(pi, correct)
			}
		}(pi)
	}
	wg.Wait()
	elapsed := time.Since(start)

	for pi, err := range errs {
		if err != nil {
			return ConcurrentResult{}, fmt.Errorf("worker %d: %w", pi, err)
		}
	}
	var total, hits int64
	for pi, n := range iters {
		total += n
		if cfg.Pipelined {
			hits += pipeClients[pi].Engine().CacheHits()
		} else {
			hits += clients[pi].Engine().CacheHits()
		}
	}
	final := make([]msg.Value, m)
	for i := 0; i < m; i++ {
		best := c.Server(0).Get(msg.RegisterID(i))
		for s := 1; s < c.NumServers(); s++ {
			best = msg.MaxTagged(best, c.Server(s).Get(msg.RegisterID(i)))
		}
		final[i] = best.Val
	}
	return ConcurrentResult{
		Converged:  tracker.converged(),
		Iterations: total,
		Messages:   c.Messages(),
		Elapsed:    elapsed,
		CacheHits:  hits,
		Final:      final,
	}, nil
}
