package loadgen

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"probquorum/internal/metrics"
	"probquorum/internal/msg"
	"probquorum/internal/obs"
	"probquorum/internal/register"
	"probquorum/internal/trace"
)

// Target is the asynchronous client seam the driver issues against: the
// sharded keyspace's callback API, implemented by *register.Keyspace
// in-process and *tcp.Client over the wire. The callback style is
// what keeps the harness open-loop — one goroutine submits at the paced
// instants and completions land on the client's delivery goroutines.
type Target interface {
	ReadAsyncFunc(key msg.RegisterID, fn func(msg.Tagged, error)) *register.PendingOp
	WriteAsyncFunc(key msg.RegisterID, val msg.Value, fn func(msg.Tagged, error)) *register.PendingOp
	ReadAtomicAsyncFunc(key msg.RegisterID, fn func(msg.Tagged, error)) *register.PendingOp
}

// Config parameterizes one load run.
type Config struct {
	// Rate is the offered load in operations per second. Required.
	Rate float64
	// Duration is how long to keep offering load. Required.
	Duration time.Duration
	// Mix is the operation split; zero value means DefaultMix.
	Mix Mix
	// Keys picks registers; nil means 64 uniform keys.
	Keys KeyPicker
	// Seed makes the workload draw sequence reproducible.
	Seed uint64
	// MaxInFlight sheds paced slots beyond this many outstanding
	// operations, bounding harness memory under saturation while keeping
	// the schedule honest (shed slots are counted, not stretched over).
	// Zero means 4096.
	MaxInFlight int64
	// Interval is the stats bucketing period. Zero means 1s.
	Interval time.Duration
	// Soak switches the run to correctness mode: plain reads are promoted
	// to atomic reads, every operation is recorded in a trace with
	// single-writer-per-key discipline, and the trace replays the
	// register checkers after the run (see Result.CheckSoak).
	Soak bool
	// Registry, when set, is scraped at every interval boundary; each
	// IntervalStat carries the delta and Result.Obs the whole-run delta.
	Registry *obs.Registry
	// Clock defaults to WallClock. Tests inject virtual time.
	Clock Clock
	// DrainTimeout bounds the post-run wait for in-flight completions.
	// Zero means 15s.
	DrainTimeout time.Duration
}

// IntervalStat is one reporting interval of a run. Its latencies come from
// the difference of two snapshots of the run's histogram; Max is the top of
// the interval's highest occupied bucket, capped at the run's maximum.
type IntervalStat struct {
	Start     time.Duration `json:"start"`
	Issued    int64         `json:"issued"`
	Completed int64         `json:"completed"`
	Errors    int64         `json:"errors"`
	Shed      int64         `json:"shed"`
	P50       time.Duration `json:"p50_ns"`
	P99       time.Duration `json:"p99_ns"`
	Max       time.Duration `json:"max_ns"`
	Behind    int64         `json:"behind"`
	InFlight  int64         `json:"in_flight"`
	Obs       *obs.Snapshot `json:"obs,omitempty"`
}

// KindStats aggregates one operation kind over the whole run.
type KindStats struct {
	Issued    int64                `json:"issued"`
	Completed int64                `json:"completed"`
	Errors    int64                `json:"errors"`
	Hist      *metrics.LatencyHist `json:"-"`
}

// Result is everything a run produced.
type Result struct {
	Rate    float64       `json:"rate"`
	Elapsed time.Duration `json:"elapsed_ns"`

	Offered   int64 `json:"offered"`
	Issued    int64 `json:"issued"`
	Shed      int64 `json:"shed"`
	Deflected int64 `json:"deflected"`
	Completed int64 `json:"completed"`
	Errors    int64 `json:"errors"`
	// RetiredKeys counts (client, key) pairs permanently parked by a
	// failed write in soak mode (the write may yet take effect, so the
	// pair cannot be reused without risking a well-formedness violation).
	RetiredKeys int64 `json:"retired_keys"`
	MaxBehind   int64 `json:"max_behind"`

	IsolationViolations int64  `json:"isolation_violations"`
	IsolationExample    string `json:"isolation_example,omitempty"`

	Kinds     map[string]*KindStats `json:"kinds"`
	Total     *metrics.LatencyHist  `json:"-"`
	Intervals []IntervalStat        `json:"intervals"`
	Obs       *obs.Snapshot         `json:"obs,omitempty"`

	// Trace holds the recorded operations in soak mode, nil otherwise.
	Trace []trace.Op `json:"-"`
}

// Driver owns one open-loop run over a set of targets. Writes for key k
// always go through target k mod len(targets) — the single-writer-per-key
// discipline that makes the soak trace checkable with CheckAtomic — while
// reads spread across all targets.
type Driver struct {
	cfg     Config
	targets []Target
}

// NewDriver validates the config and builds a driver.
func NewDriver(cfg Config, targets ...Target) (*Driver, error) {
	if len(targets) == 0 {
		return nil, errors.New("loadgen: need at least one target")
	}
	if cfg.Rate <= 0 {
		return nil, fmt.Errorf("loadgen: rate %v must be positive", cfg.Rate)
	}
	if cfg.Duration <= 0 {
		return nil, fmt.Errorf("loadgen: duration %v must be positive", cfg.Duration)
	}
	if cfg.Mix == (Mix{}) {
		cfg.Mix = DefaultMix
	}
	if cfg.Keys == nil {
		cfg.Keys = UniformKeys{N: 64}
	}
	if cfg.MaxInFlight == 0 {
		cfg.MaxInFlight = 4096
	}
	if cfg.Interval == 0 {
		cfg.Interval = time.Second
	}
	if cfg.Clock == nil {
		cfg.Clock = WallClock{}
	}
	if cfg.DrainTimeout == 0 {
		cfg.DrainTimeout = 15 * time.Second
	}
	return &Driver{cfg: cfg, targets: targets}, nil
}

// Per-(target, key) soak states. A pair is busy while an operation is in
// flight (the pipelined well-formedness condition forbids overlap) and dead
// once a write on it failed.
const (
	pairFree uint8 = iota
	pairBusy
	pairDead
)

// run is the mutable state of one Run call.
type run struct {
	d     *Driver
	cfg   Config
	pacer *Pacer
	rng   *rand.Rand

	inFlight atomic.Int64
	logical  atomic.Int64 // trace timestamp source
	wg       sync.WaitGroup

	// total and the kinds' histograms take completions from client
	// delivery goroutines without a lock; the issuing goroutine diffs
	// snapshots of total for each interval.
	total *metrics.LatencyHist

	// mu guards everything below: completion stats come from client
	// delivery goroutines, interval rollover from the issuing goroutine.
	mu           sync.Mutex
	curErrors    int64
	kinds        map[string]*KindStats
	completed    int64
	errors       int64
	isoViolation int64
	isoExample   string
	traceLog     *trace.Log

	// pairs is the soak-mode (target, key) state machine; guarded by mu
	// because callbacks free pairs while the issuing goroutine draws.
	pairs [][]uint8 // [target][key]
	// nextSeq is the per-key write sequence, issuing goroutine only.
	nextSeq []uint32
}

// Run offers load until the duration elapses or ctx is cancelled, then
// drains in-flight operations and returns the collected result. The error
// is non-nil only for harness failures; operation errors are counted in the
// result, because under fault schedules they are data, not failures.
func (d *Driver) Run(ctx context.Context) (*Result, error) {
	cfg := d.cfg
	r := &run{
		d:     d,
		cfg:   cfg,
		pacer: NewPacer(cfg.Rate, cfg.Clock),
		rng:   rand.New(rand.NewPCG(cfg.Seed, cfg.Seed^0x9e3779b97f4a7c15)),
		total: new(metrics.LatencyHist),
		kinds: map[string]*KindStats{},
	}
	for _, k := range []OpKind{OpRead, OpWrite, OpAtomicRead} {
		r.kinds[k.String()] = &KindStats{Hist: new(metrics.LatencyHist)}
	}
	if cfg.Soak {
		r.traceLog = &trace.Log{}
		r.pairs = make([][]uint8, len(d.targets))
		for i := range r.pairs {
			r.pairs[i] = make([]uint8, cfg.Keys.Keys())
		}
		r.nextSeq = make([]uint32, cfg.Keys.Keys())
	}

	res := &Result{Rate: cfg.Rate, Kinds: r.kinds, Total: r.total}
	var prevObs obs.Snapshot
	var firstObs obs.Snapshot
	if cfg.Registry != nil {
		prevObs = cfg.Registry.Snapshot()
		firstObs = prevObs
	}

	start := cfg.Clock.Now()
	intervalStart := start
	var intervalIssued, intervalShed int64
	var prevLat metrics.LatencySnapshot

	flushInterval := func(now time.Time) {
		lat := r.total.Snapshot()
		cur := lat.Sub(prevLat)
		prevLat = lat
		r.mu.Lock()
		errs := r.curErrors
		r.curErrors = 0
		r.mu.Unlock()
		st := IntervalStat{
			Start:     intervalStart.Sub(start),
			Issued:    intervalIssued,
			Completed: cur.Count,
			Errors:    errs,
			Shed:      intervalShed,
			P50:       cur.Quantile(0.50),
			P99:       cur.Quantile(0.99),
			Max:       cur.Quantile(1),
			Behind:    r.pacer.Behind(),
			InFlight:  r.inFlight.Load(),
		}
		if cfg.Registry != nil {
			snap := cfg.Registry.Snapshot()
			delta := snap.DeltaSince(prevObs)
			st.Obs = &delta
			prevObs = snap
		}
		res.Intervals = append(res.Intervals, st)
		intervalIssued, intervalShed = 0, 0
		intervalStart = now
	}

	for {
		now := cfg.Clock.Now()
		if now.Sub(start) >= cfg.Duration {
			break
		}
		seq, ok := r.pacer.Next(ctx)
		if !ok {
			break
		}
		res.Offered++
		if behind := r.pacer.Behind(); behind > res.MaxBehind {
			res.MaxBehind = behind
		}
		if now = cfg.Clock.Now(); now.Sub(intervalStart) >= cfg.Interval {
			flushInterval(now)
		}

		if r.inFlight.Load() >= cfg.MaxInFlight {
			res.Shed++
			intervalShed++
			continue
		}
		kind := cfg.Mix.Pick(r.rng)
		if cfg.Soak && kind == OpRead {
			kind = OpAtomicRead
		}
		key, tgt, ok := r.draw(kind)
		if !ok {
			res.Deflected++
			continue
		}
		r.issue(kind, tgt, key, r.pacer.ScheduledAt(seq))
		res.Issued++
		intervalIssued++
	}

	// Drain: every operation terminates (op timeouts and bounded retries),
	// but cap the wait so a harness bug cannot hang the run.
	drained := make(chan struct{})
	go func() { r.wg.Wait(); close(drained) }()
	drainCtx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		select {
		case <-drained:
		case <-time.After(cfg.DrainTimeout):
			cancel()
		}
	}()
	select {
	case <-drained:
	case <-drainCtx.Done():
	}

	flushInterval(cfg.Clock.Now())
	res.Elapsed = cfg.Clock.Now().Sub(start)
	r.mu.Lock()
	res.Completed = r.completed
	res.Errors = r.errors
	res.IsolationViolations = r.isoViolation
	res.IsolationExample = r.isoExample
	if cfg.Soak {
		for _, row := range r.pairs {
			for _, s := range row {
				if s == pairDead {
					res.RetiredKeys++
				}
			}
		}
	}
	r.mu.Unlock()
	if cfg.Soak {
		res.Trace = r.traceLog.Ops()
	}
	if cfg.Registry != nil {
		final := cfg.Registry.Snapshot()
		delta := final.DeltaSince(firstObs)
		res.Obs = &delta
	}
	return res, nil
}

// draw picks the key and target for one operation. Writes are pinned to the
// key's home target; reads go to a random target. In soak mode pairs that
// are busy or dead force a redraw (bounded), keeping the trace well-formed.
func (r *run) draw(kind OpKind) (msg.RegisterID, int, bool) {
	const redraws = 8
	for attempt := 0; attempt < redraws; attempt++ {
		key := r.cfg.Keys.Pick(r.rng)
		tgt := int(key) % len(r.d.targets)
		if kind != OpWrite {
			tgt = r.rng.IntN(len(r.d.targets))
		}
		if !r.cfg.Soak {
			return key, tgt, true
		}
		r.mu.Lock()
		if kind != OpWrite {
			// Reads may use any free target: probe from the random start.
			for i := 0; i < len(r.d.targets); i++ {
				t := (tgt + i) % len(r.d.targets)
				if r.pairs[t][key] == pairFree {
					r.mu.Unlock()
					return key, t, true
				}
			}
			r.mu.Unlock()
			continue
		}
		free := r.pairs[tgt][key] == pairFree
		r.mu.Unlock()
		if free {
			return key, tgt, true
		}
	}
	return 0, 0, false
}

// issue submits one operation and wires its completion callback.
func (r *run) issue(kind OpKind, tgt int, key msg.RegisterID, sched time.Time) {
	target := r.d.targets[tgt]
	r.inFlight.Add(1)
	r.wg.Add(1)
	var invoke int64
	if r.cfg.Soak {
		r.mu.Lock()
		r.pairs[tgt][key] = pairBusy
		r.mu.Unlock()
		invoke = r.logical.Add(1)
	}
	fn := func(tag msg.Tagged, err error) {
		lat := r.cfg.Clock.Now().Sub(sched)
		var respond int64
		if r.cfg.Soak {
			respond = r.logical.Add(1)
		}
		r.complete(kind, tgt, key, tag, err, lat, invoke, respond)
		r.inFlight.Add(-1)
		r.wg.Done()
	}
	switch kind {
	case OpRead:
		target.ReadAsyncFunc(key, fn)
	case OpAtomicRead:
		target.ReadAtomicAsyncFunc(key, fn)
	case OpWrite:
		seq := r.nextWriteSeq(key)
		target.WriteAsyncFunc(key, EncodeValue(key, seq), fn)
	}
	r.mu.Lock()
	r.kinds[kind.String()].Issued++
	r.mu.Unlock()
}

// nextWriteSeq hands out the per-key write sequence. Outside soak mode the
// allocation is lazy because nextSeq is only sized for soak runs.
func (r *run) nextWriteSeq(key msg.RegisterID) uint32 {
	if r.nextSeq == nil {
		r.nextSeq = make([]uint32, r.cfg.Keys.Keys())
	}
	r.nextSeq[key]++
	return r.nextSeq[key]
}

// complete folds one finished operation into the stats and, in soak mode,
// the trace. Callbacks arrive on client delivery goroutines.
func (r *run) complete(kind OpKind, tgt int, key msg.RegisterID, tag msg.Tagged, err error, lat time.Duration, invoke, respond int64) {
	ks := r.kinds[kind.String()]
	if err == nil {
		r.total.Observe(lat)
		ks.Hist.Observe(lat)
	}
	r.mu.Lock()
	if err != nil {
		r.errors++
		r.curErrors++
		ks.Errors++
	} else {
		r.completed++
		ks.Completed++
		if kind != OpWrite && !tag.TS.IsZero() {
			if gotKey, _, ok := DecodeValue(tag.Val); !ok || gotKey != key {
				r.isoViolation++
				if r.isoExample == "" {
					r.isoExample = fmt.Sprintf("read of key %d returned value %v (decoded key %d, ok=%v)",
						key, tag.Val, gotKey, ok)
				}
			}
		}
	}
	if !r.cfg.Soak {
		r.mu.Unlock()
		return
	}
	tk := trace.KindRead
	if kind == OpWrite {
		tk = trace.KindWrite
	}
	op := trace.Op{
		Kind:   tk,
		Proc:   msg.NodeID(tgt),
		Reg:    key,
		Invoke: invoke,
		Tag:    tag,
	}
	switch {
	case err != nil && kind == OpWrite:
		// The write may still take effect later; record it as pending and
		// retire the pair so no later op on it can overlap.
		op.Pending = true
		r.traceLog.Record(op)
		r.pairs[tgt][key] = pairDead
	case err != nil:
		// A failed read changed nothing: drop it and free the pair.
		r.pairs[tgt][key] = pairFree
	default:
		op.Respond = respond
		r.traceLog.Record(op)
		r.pairs[tgt][key] = pairFree
	}
	r.mu.Unlock()
}
