package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"probquorum/internal/faults"
	"probquorum/internal/loadgen"
	"probquorum/internal/msg"
	"probquorum/internal/obs"
	"probquorum/internal/rng"
)

const (
	// burstEvery is the open-loop schedule's grain: rate/1000 slots fall due
	// together every millisecond. An iterative worker issues a round's reads
	// at once, so bursts are the honest arrival shape.
	burstEvery = time.Millisecond
	// maxInFlight sheds open-loop slots beyond this many outstanding
	// operations, bounding harness memory while keeping the schedule honest:
	// shed slots are counted as failed, never stretched over. It is a third
	// of a second of the fastest workload's slots: the sandbox this was sized
	// on stalls the whole process for 100-300 ms now and then, and a workload
	// must not fail operations because of that.
	maxInFlight = 16384
	// drainTimeout caps the wait for operations still in flight when the
	// schedule ends. Every operation terminates (bounded attempts, unlimited
	// retries), so hitting it is a harness or stack bug.
	drainTimeout = 20 * time.Second
	// closedLoopCeiling sizes a closed-loop window's sample slice; a stack
	// faster than this many ops/s loses latency samples, never counts. (Two
	// cores at today's 4.6 µs of CPU per operation reach 430k.)
	closedLoopCeiling = 1000000
)

// runOpts is how long and how one measurement runs.
type runOpts struct {
	seed    uint64
	warm    time.Duration
	window  time.Duration
	windows int
	traced  bool
	heap    bool // report heap_mb
}

// edge is what the issuing goroutine reads off the process at a window
// boundary; a window's cost is the difference of its two edges.
type edge struct {
	at  int64 // runner clock, ns
	cpu int64 // user+sys CPU of the process, ns
	mem runtime.MemStats
	obs obs.Snapshot // the plant's instruments; empty when untraced
}

func cpuNow() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// winStats is one measured window. The issuing goroutine owns due and shed;
// completion callbacks share the rest through atomics.
type winStats struct {
	due, shed int64

	lat  []uint32 // latency samples of successful operations, ns
	n    atomic.Int64
	ok   atomic.Int64
	errs atomic.Int64
	late atomic.Int64 // successful but past the workload's limit
	// reads, stale and viol are the output checker's tallies.
	reads, stale, viol atomic.Int64
}

// opRec is one in-flight operation. Records are recycled through the
// runner's free list, which is also the in-flight limit; fn is bound once so
// issuing allocates no closure.
type opRec struct {
	r  *runner
	fn func(msg.Tagged, error)

	due   int64 // latency reference: the slot's due instant (closed loop: submit)
	slot  int64
	kind  loadgen.OpKind
	key   msg.RegisterID
	seq   uint32 // writes: the sequence number being written
	floor uint32 // reads: newest acknowledged write at submit
}

// runner drives one register workload against one plant from a single
// issuing goroutine.
type runner struct {
	w      workload
	p      *plant
	chk    *checker
	rnd    *rand.Rand
	strict bool // stale reads are violations (strict quorum system)

	base   time.Time
	start  int64 // runner clock at which window 0 begins
	window int64
	wins   []winStats
	edges  []edge

	free  chan *opRec
	spans *spanLog // nil when untraced

	// issuing goroutine only
	slot      int64
	lag       []uint32 // due→submit per measured open-loop slot, ns
	maxBehind int64

	violMu   sync.Mutex
	violSeen []string // first few violations, for the report
}

func newRunner(w workload, p *plant, chk *checker, o runOpts) *runner {
	r := &runner{
		w: w, p: p, chk: chk,
		rnd:    rng.Derive(o.seed, "bench.ops."+w.Name),
		strict: w.system().Strict(),
		base:   time.Now(),
		window: int64(o.window),
		wins:   make([]winStats, o.windows),
		edges:  make([]edge, 0, o.windows+1),
	}
	inFlight, perSecond := maxInFlight, w.Rate
	if w.Loop == closedLoop {
		inFlight, perSecond = w.InFlight, closedLoopCeiling
	}
	perWindow := int64(float64(perSecond)*o.window.Seconds()) + 1
	for i := range r.wins {
		r.wins[i].lat = make([]uint32, perWindow)
	}
	if w.Loop == openLoop {
		r.lag = make([]uint32, 0, perWindow*int64(o.windows))
	}
	r.free = make(chan *opRec, inFlight) // free list: capacity is the in-flight limit
	for i := 0; i < inFlight; i++ {
		rec := &opRec{r: r}
		rec.fn = rec.done
		r.free <- rec
	}
	if o.traced {
		r.spans = newSpanLog(perWindow * int64(o.windows+1))
	}
	return r
}

// harnessBytes is the heap the runner itself holds, subtracted from heap_mb
// so the metric tracks the stack and not the sample buffers.
func (r *runner) harnessBytes() int64 {
	n := r.chk.bytes() + int64(cap(r.lag))*4
	for i := range r.wins {
		n += int64(cap(r.wins[i].lat)) * 4
	}
	if r.spans != nil {
		n += int64(cap(r.spans.ops)) * int64(48)
	}
	return n
}

func (r *runner) now() int64 { return int64(time.Since(r.base)) }

// winOf maps an instant to its measured window, or nil during warm-up and
// after the last window.
func (r *runner) winOf(at int64) *winStats {
	if at < r.start {
		return nil
	}
	if i := (at - r.start) / r.window; i < int64(len(r.wins)) {
		return &r.wins[i]
	}
	return nil
}

func (r *runner) mark() {
	e := edge{at: r.now(), cpu: cpuNow()}
	runtime.ReadMemStats(&e.mem)
	if r.p.reg != nil {
		e.obs = r.p.reg.Snapshot()
	}
	r.edges = append(r.edges, e)
}

// sleepUntil parks the calling OS thread until the runner clock reads due.
// A Go timer on this kernel overshoots a sub-millisecond sleep by 0.5-1.1 ms;
// nanosleep from a locked thread overshoots by about 90 µs.
func (r *runner) sleepUntil(due int64) {
	for {
		d := due - r.now()
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(d)
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop recomputes what is left
	}
}

// run offers the workload: warm-up, then the measured windows back to back,
// then a drain. A cancelled ctx ends the schedule early.
func (r *runner) run(ctx context.Context, warm time.Duration) error {
	first := r.now()
	r.start = first + int64(warm)
	end := r.start + r.window*int64(len(r.wins))

	var schedWG sync.WaitGroup
	sctx, stopSched := context.WithCancel(ctx)
	defer schedWG.Wait()
	defer stopSched()
	if r.w.Crash {
		sched, err := crashSchedule(time.Duration(r.window), len(r.wins))
		if err != nil {
			return err
		}
		schedWG.Add(1)
		go func() {
			defer schedWG.Done()
			if !faults.SleepCtx(sctx, time.Duration(r.start-r.now())) {
				return
			}
			for _, a := range sched.Run(sctx, time.Now, faults.SleepCtx, r.p) {
				if a.Err != nil {
					r.violation(fmt.Sprintf("fault %v: %v", a.Action, a.Err))
				}
			}
			if sctx.Err() != nil {
				_ = r.p.Recover(1) // cut short mid-outage: let the drain finish
			}
		}()
	}

	if r.w.Loop == openLoop {
		r.offerOpen(ctx, first, end)
	} else {
		r.offerClosed(ctx, end)
	}
	return r.drain()
}

// crashSchedule silences server 1 from 0.3 to 0.7 of every window.
func crashSchedule(window time.Duration, windows int) (faults.Schedule, error) {
	var text string
	for i := 0; i < windows; i++ {
		at := time.Duration(i) * window
		text += fmt.Sprintf("@%v crash 1; @%v recover 1; ", at+window*3/10, at+window*7/10)
	}
	return faults.ParseSchedule(text)
}

// offerOpen is the open loop: burst i falls due at start + i ms whatever
// happened to the bursts before it. The issuing goroutine holds its OS
// thread so nanosleep wakes it directly.
func (r *runner) offerOpen(ctx context.Context, first, end int64) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	perBurst := r.w.Rate / int(time.Second/burstEvery)
	nextEdge := r.start
	for due := first; due < end && ctx.Err() == nil; due += int64(burstEvery) {
		r.sleepUntil(due)
		if due >= nextEdge {
			r.mark()
			nextEdge += r.window
		}
		ws := r.winOf(due)
		if ws != nil {
			if behind := (r.now() - due) / int64(burstEvery) * int64(perBurst); behind > r.maxBehind {
				r.maxBehind = behind
			}
		}
		for j := 0; j < perBurst; j++ {
			r.slot++
			if ws != nil {
				ws.due++
			}
			select {
			case rec := <-r.free:
				r.issue(rec, due, ws != nil)
			default:
				if ws != nil {
					ws.shed++
				}
			}
		}
	}
	if ctx.Err() == nil {
		r.sleepUntil(end)
		r.mark()
	}
}

// offerClosed is the closed loop: the free list holds InFlight records, so
// taking one blocks until an operation completes.
func (r *runner) offerClosed(ctx context.Context, end int64) {
	nextEdge := r.start
	for ctx.Err() == nil {
		rec := <-r.free
		t := r.now()
		for t >= nextEdge && nextEdge <= end {
			r.mark()
			nextEdge += r.window
		}
		if t >= end {
			r.free <- rec
			return
		}
		r.slot++
		r.issue(rec, t, false)
	}
}

// issue draws one operation and submits it. Writes go through the key's
// home client (one writer per key); reads through a random client.
func (r *runner) issue(rec *opRec, due int64, recordLag bool) {
	kind := r.w.Mix.Pick(r.rnd)
	key := msg.RegisterID(r.rnd.IntN(r.w.Keys))
	rec.due, rec.slot, rec.kind, rec.key = due, r.slot, kind, key
	cl := r.p.home(key)
	if kind == loadgen.OpWrite {
		rec.seq = r.chk.beginWrite(key)
	} else {
		rec.floor = r.chk.floor(key)
		cl = r.p.clients[r.rnd.IntN(len(r.p.clients))]
	}
	sp := r.spans.at(rec.slot)
	submit := r.now()
	if recordLag {
		r.lag = append(r.lag, sat32(submit-due))
	}
	if sp != nil {
		sp.slot, sp.due, sp.submit = rec.slot, due, submit
	}
	// rec belongs to the completion callback from here on.
	switch kind {
	case loadgen.OpWrite:
		cl.WriteAsyncFunc(key, loadgen.EncodeValue(key, rec.seq), rec.fn)
	case loadgen.OpRead:
		cl.ReadAsyncFunc(key, rec.fn)
	case loadgen.OpAtomicRead:
		cl.ReadAtomicAsyncFunc(key, rec.fn)
	}
	if sp != nil {
		sp.submitted = r.now()
	}
}

// done is the completion callback; it runs on a client delivery goroutine.
// Open-loop operations count in the window their slot fell due in, closed-
// loop ones in the window they completed in.
func (o *opRec) done(tag msg.Tagged, err error) {
	r := o.r
	t := r.now()
	at := o.due
	if r.w.Loop == closedLoop {
		at = t
	}
	if o.kind == loadgen.OpWrite && err == nil {
		r.chk.ackWrite(o.key, o.seq)
	}
	if ws := r.winOf(at); ws != nil {
		r.record(ws, o, tag, err, t-o.due)
	}
	if sp := r.spans.at(o.slot); sp != nil {
		sp.callback, sp.recorded = t, r.now()
	}
	r.free <- o
}

func (r *runner) record(ws *winStats, o *opRec, tag msg.Tagged, err error, lat int64) {
	if err != nil {
		ws.errs.Add(1)
		return
	}
	if o.kind != loadgen.OpWrite {
		ws.reads.Add(1)
		switch v := r.chk.classify(o.key, tag, o.floor); {
		case v == readStale && !r.strict:
			ws.stale.Add(1)
		case v != readOK:
			ws.viol.Add(1)
			r.violation(fmt.Sprintf("%v read of key %d returned %v@%v, floor %d: %v",
				o.kind, o.key, tag.Val, tag.TS, o.floor, v))
			return
		}
	}
	ws.ok.Add(1)
	if i := ws.n.Add(1) - 1; i < int64(len(ws.lat)) {
		ws.lat[i] = sat32(lat)
	}
	if lat > int64(r.w.Limit) {
		ws.late.Add(1)
	}
}

func (r *runner) violation(s string) {
	r.violMu.Lock()
	if len(r.violSeen) < 5 {
		r.violSeen = append(r.violSeen, s)
	}
	r.violMu.Unlock()
}

// drain waits until every record is back on the free list.
func (r *runner) drain() error {
	timeout := time.After(drainTimeout)
	recs := make([]*opRec, 0, cap(r.free))
	for len(recs) < cap(r.free) {
		select {
		case rec := <-r.free:
			recs = append(recs, rec)
		case <-timeout:
			return fmt.Errorf("%s: %d operations still in flight %v after the schedule ended",
				r.w.Name, cap(r.free)-len(recs), drainTimeout)
		}
	}
	for _, rec := range recs {
		r.free <- rec
	}
	return nil
}

// winCounts is one window's contribution to the contract's operation counts
// and to the stale-read band check.
type winCounts struct {
	attempted, failed, reads, stale int64
}

// windowValues turns measured window i into its end-to-end and harness
// metrics.
func (r *runner) windowValues(i int) (map[string]float64, winCounts) {
	ws := &r.wins[i]
	a, b := r.edges[i], r.edges[i+1]
	secs := float64(b.at-a.at) / 1e9
	ok, errs, viol := ws.ok.Load(), ws.errs.Load(), ws.viol.Load()
	lat := ws.lat[:min(ws.n.Load(), int64(len(ws.lat)))]
	slices.Sort(lat)

	c := winCounts{attempted: ws.due, failed: errs + viol + ws.shed, reads: ws.reads.Load(), stale: ws.stale.Load()}
	if r.w.Loop == closedLoop {
		c.attempted = ok + errs + viol // no schedule: what was issued and came back
	}
	perOp, perAttempt := 1/float64(max(ok, 1)), 1/float64(max(c.attempted, 1))
	sloMiss := float64(c.failed+ws.late.Load()) * perAttempt
	return map[string]float64{
		"p50_us":                float64(quantile(lat, 0.50)) / 1e3,
		"within_limit_frac":     1 - sloMiss,
		"ops_per_s":             float64(ok) / secs,
		"cpu_us_per_op":         float64(b.cpu-a.cpu) / 1e3 * perOp,
		"loadgen.p99_us":        float64(quantile(lat, 0.99)) / 1e3,
		"loadgen.shed":          float64(ws.shed),
		"loadgen.slo_miss_frac": sloMiss,
		"loadgen.failed_frac":   float64(c.failed) * perAttempt,
		"go.alloc_b_per_op":     float64(b.mem.TotalAlloc-a.mem.TotalAlloc) * perOp,
		"go.gc_per_s":           float64(b.mem.NumGC-a.mem.NumGC) / secs,
		"go.gc_pause_ms_total":  float64(b.mem.PauseTotalNs-a.mem.PauseTotalNs) / 1e6,
	}, c
}

// pacerValues reports how late the generator itself ran over all measured
// windows. Empty for a closed loop, which has no schedule to be late for.
func (r *runner) pacerValues() map[string]float64 {
	slices.Sort(r.lag)
	return map[string]float64{
		"loadgen.pacer_lag_us.p50": float64(quantile(r.lag, 0.50)) / 1e3,
		"loadgen.pacer_lag_us.p99": float64(quantile(r.lag, 0.99)) / 1e3,
		"loadgen.max_behind_slots": float64(r.maxBehind),
	}
}
