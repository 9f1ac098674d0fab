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
// instants and completions land on the client's delivery goroutines, where
// the online checker judges each read.
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
	// Registry, when set, is scraped at every interval boundary; each
	// IntervalStat carries the delta and Result.Obs the whole-run delta.
	// The online checker's verdict counters are registered in it as
	// loadgen.check.{checked,stale,inversion,reads_from,isolation}.
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
	Completed int64 `json:"completed"`
	Errors    int64 `json:"errors"`
	MaxBehind int64 `json:"max_behind"`

	// Check is the online checker's verdict on every completed read. On a
	// strict quorum system, such as the testbed's majorities, any read not
	// judged ok violates the register class it was issued under.
	Check trace.Verdicts `json:"check"`

	Kinds     map[string]*KindStats `json:"kinds"`
	Total     *metrics.LatencyHist  `json:"-"`
	Intervals []IntervalStat        `json:"intervals"`
	Obs       *obs.Snapshot         `json:"obs,omitempty"`
}

// Driver owns one open-loop run over a set of targets. Writes for key k
// always go through target k mod len(targets) — one writer per key, so the
// key's write seqs are in timestamp order, as the online checker needs —
// while reads spread across all targets.
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

// run is the mutable state of one Run call.
type run struct {
	d     *Driver
	cfg   Config
	pacer *Pacer
	rng   *rand.Rand
	chk   *trace.Online

	inFlight atomic.Int64
	wg       sync.WaitGroup

	// total and the kinds' histograms take completions from client
	// delivery goroutines without a lock; the issuing goroutine diffs
	// snapshots of total for each interval.
	total *metrics.LatencyHist

	// mu guards everything below: completion stats come from client
	// delivery goroutines, interval rollover from the issuing goroutine.
	mu        sync.Mutex
	curErrors int64
	kinds     map[string]*KindStats
	completed int64
	errors    int64

	// nextSeq is the per-key write sequence, issuing goroutine only.
	nextSeq []uint32
}

// Run offers load until the duration elapses or ctx is cancelled, then
// drains in-flight operations and returns the collected result. The error
// is non-nil only for harness failures; operation errors are counted in the
// result, because under fault schedules they are data, not failures, and so
// are the checker's verdicts (Result.Check).
func (d *Driver) Run(ctx context.Context) (*Result, error) {
	cfg := d.cfg
	r := &run{
		d:     d,
		cfg:   cfg,
		pacer: NewPacer(cfg.Rate, cfg.Clock),
		rng:   rand.New(rand.NewPCG(cfg.Seed, cfg.Seed^0x9e3779b97f4a7c15)),
		chk:   trace.NewOnline(cfg.Keys.Keys()),
		total: new(metrics.LatencyHist),
		kinds: map[string]*KindStats{},

		nextSeq: make([]uint32, cfg.Keys.Keys()),
	}
	for _, k := range []OpKind{OpRead, OpWrite, OpAtomicRead} {
		r.kinds[k.String()] = &KindStats{Hist: new(metrics.LatencyHist)}
	}

	res := &Result{Rate: cfg.Rate, Kinds: r.kinds, Total: r.total}
	var prevObs obs.Snapshot
	var firstObs obs.Snapshot
	if cfg.Registry != nil {
		r.chk.Register("loadgen.check", cfg.Registry)
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
		r.issue(cfg.Mix.Pick(r.rng), r.pacer.ScheduledAt(seq))
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
	r.mu.Unlock()
	res.Check = r.chk.Verdicts()
	if cfg.Registry != nil {
		final := cfg.Registry.Snapshot()
		delta := final.DeltaSince(firstObs)
		res.Obs = &delta
	}
	return res, nil
}

// issue draws a key and submits one operation of kind to its target. A
// write goes to the key's home target, a read to a random one. The floor a
// read is judged against is sampled here, before submission.
func (r *run) issue(kind OpKind, sched time.Time) {
	key := r.cfg.Keys.Pick(r.rng)
	target := r.d.targets[int(key)%len(r.d.targets)]
	if kind != OpWrite {
		target = r.d.targets[r.rng.IntN(len(r.d.targets))]
	}
	r.inFlight.Add(1)
	r.wg.Add(1)
	floor := r.chk.Floor(key)
	var seq uint32
	if kind == OpWrite {
		r.nextSeq[key]++
		seq = r.nextSeq[key]
		r.chk.Issue(key, seq)
	}
	fn := func(tag msg.Tagged, err error) {
		r.complete(kind, key, seq, floor, tag, err, r.cfg.Clock.Now().Sub(sched))
		r.inFlight.Add(-1)
		r.wg.Done()
	}
	switch kind {
	case OpRead:
		target.ReadAsyncFunc(key, fn)
	case OpAtomicRead:
		target.ReadAtomicAsyncFunc(key, fn)
	case OpWrite:
		target.WriteAsyncFunc(key, EncodeValue(key, seq), fn)
	}
	r.mu.Lock()
	r.kinds[kind.String()].Issued++
	r.mu.Unlock()
}

// complete folds one finished operation into the stats and the online
// checker: an acknowledged write raises its key's floor, and a read is
// judged against the floor it took at submission. A failed write stays
// issued (it may yet take effect); a failed read returned nothing to judge.
// Callbacks arrive on client delivery goroutines.
func (r *run) complete(kind OpKind, key msg.RegisterID, seq uint32, floor trace.Floor, tag msg.Tagged, err error, lat time.Duration) {
	ks := r.kinds[kind.String()]
	if err == nil {
		r.total.Observe(lat)
		ks.Hist.Observe(lat)
		if kind == OpWrite {
			r.chk.Ack(key, seq)
		} else {
			got, gotSeq := key, uint32(0) // the zero timestamp: never written
			if !tag.TS.IsZero() {
				var ok bool
				if got, gotSeq, ok = DecodeValue(tag.Val); !ok {
					got = -1
				}
			}
			r.chk.Read(key, floor, kind == OpAtomicRead, got, gotSeq)
		}
	}
	r.mu.Lock()
	if err != nil {
		r.errors++
		r.curErrors++
		ks.Errors++
	} else {
		r.completed++
		ks.Completed++
	}
	r.mu.Unlock()
}
