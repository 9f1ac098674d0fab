package main

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"time"

	"probquorum/internal/obs"
)

// measurement is what one pass over one workload produced: samples of each
// metric by name (one per window, per set-up, or a single run-wide value),
// the contract's operation counts, and whether the outputs were correct.
type measurement struct {
	samples    map[string][]float64
	attempted  int64
	failed     int64
	violations []string
	spans      []span
}

func newMeasurement() *measurement {
	return &measurement{samples: map[string][]float64{}}
}

func (m *measurement) add(name string, v float64) {
	m.samples[name] = append(m.samples[name], v)
}

func (m *measurement) addAll(vs map[string]float64) {
	for name, v := range vs {
		m.add(name, v)
	}
}

// value is the reported number for name: the median of its samples.
func (m *measurement) value(name string) float64 { return median(m.samples[name]) }

func (m *measurement) correct() bool { return len(m.violations) == 0 }

// liveHeapMB forces a collection and returns what survives it, less the
// harness's own buffers.
func liveHeapMB(harnessBytes int64) float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(int64(ms.HeapAlloc)-harnessBytes) / (1 << 20)
}

// pass measures w once: set-ups, warm-up, the measured windows, drain.
func pass(ctx context.Context, w workload, o runOpts, setups int) (*measurement, error) {
	if w.Loop == apspJobs {
		return apspPass(w, o, setups)
	}
	return registerPass(ctx, w, o, setups)
}

// registerPass builds the plant setups times (timing plant build + prefill
// each time, keeping the last) and drives the workload against it.
func registerPass(ctx context.Context, w workload, o runOpts, setups int) (*measurement, error) {
	m := newMeasurement()
	var p *plant
	var chk *checker
	for i := 0; i < setups; i++ {
		if p != nil {
			p.Close()
		}
		t0 := time.Now()
		chk = newChecker(w.Keys)
		var err error
		if p, err = buildPlant(w, o.seed, o.traced); err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		if err := p.prefill(w.Keys, chk); err != nil {
			p.Close()
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		m.add("setup_s", time.Since(t0).Seconds())
	}
	defer p.Close()

	r := newRunner(w, p, chk, o)
	if err := r.run(ctx, o.warm); err != nil {
		return nil, err
	}
	if o.heap {
		m.add("heap_mb", liveHeapMB(r.harnessBytes()))
	}

	var reads, stale int64
	for i := 0; i+1 < len(r.edges); i++ {
		v, c := r.windowValues(i)
		m.addAll(v)
		m.attempted += c.attempted
		m.failed += c.failed
		reads += c.reads
		stale += c.stale
	}
	if w.Loop == openLoop {
		m.addAll(r.pacerValues())
	}
	m.add("register.stale_read_frac", float64(stale)/float64(max(reads, 1)))
	m.violations = r.violSeen
	if sys := w.system(); !staleBandOK(stale, reads, sys.N(), sys.Size()) {
		m.violations = append(m.violations, fmt.Sprintf("%d of %d reads stale: outside what %s allows",
			stale, reads, sys.Name()))
	}
	if o.traced && len(r.edges) >= 2 {
		first, last := r.edges[0], r.edges[len(r.edges)-1]
		m.addAll(layerValues(last.obs.DeltaSince(first.obs)))
		sub := r.spans.submitSamples()
		slices.Sort(sub)
		m.add("tcp.submit_us.p50", float64(quantile(sub, 0.50))/1e3)
		m.add("tcp.submit_us.p99", float64(quantile(sub, 0.99))/1e3)
		m.spans = r.spans.spans()
	}
	return m, nil
}

// layerValues reads the per-layer counters of one traced window out of the
// instruments' delta over it. Per-operation ratios are over the register
// operations the observer saw complete. Names a plant did not register read
// as zero.
func layerValues(d obs.Snapshot) map[string]float64 {
	ops := d.Latencies[obsPrefix+".ops"].Count
	per := func(n int64, scale float64) float64 { return float64(n) * scale / float64(max(ops, 1)) }
	v := map[string]float64{
		"register.msgs_per_op":         per(d.Counters[obsPrefix+".msgs_sent"], 1),
		"register.retries_per_kop":     per(d.Counters[obsPrefix+".retries"], 1000),
		"register.timeouts_per_kop":    per(d.Counters[obsPrefix+".timeouts"], 1000),
		"register.stale_drops_per_kop": per(d.Counters[obsPrefix+".stale_drops"], 1000),
		"tcp.reconnects":               float64(d.Counters[obsPrefix+".reconnects"]),
		"tcp.slow_conn_drops":          float64(d.Counters[srvPrefix+".slow_conn_drops"]),
		// A high-water mark cannot be differenced: this one is since the
		// plant came up, prefill included.
		"tcp.reply_queue_max":  float64(d.Gauges[srvPrefix+".queue_depth"].Max),
		"tcp.req_batch_mean":   intHistMean(d.IntHists[obsPrefix+".batch_size"]),
		"tcp.reply_batch_mean": intHistMean(d.IntHists[srvPrefix+".reply_batch"]),
	}
	// Every atomic read either took the one-round fast path or ran a
	// write-back round.
	fast, slow := d.Counters[obsPrefix+".fast_reads"], d.Latencies[obsPrefix+".phase.write_back"].Count
	v["register.fast_read_frac"] = float64(fast) / float64(max(fast+slow, 1))
	if t := d.Tallies[obsPrefix+".access"]; t.Total > 0 {
		v["quorum.max_load"] = float64(slices.Max(t.Counts)) / float64(t.Total)
	}
	for name, key := range map[string]string{
		"pick": ".phase.pick", "quorum_wait": ".phase.quorum_wait", "write_back": ".phase.write_back", "ops": ".ops",
	} {
		h := d.Latencies[obsPrefix+key]
		// Quantile is the log2 bucket's upper bound: within 2x, so the exact
		// mean is reported beside it instead of a median.
		v["register.phase."+name+"_us.mean"] = float64(h.Mean()) / 1e3
		v["register.phase."+name+"_us.p99"] = float64(h.Quantile(0.99)) / 1e3
	}
	return v
}

func intHistMean(h obs.IntHistValue) float64 {
	var sum int64
	for v, c := range h.Counts {
		sum += int64(v) * c
	}
	return float64(sum) / float64(max(h.Total, 1))
}
