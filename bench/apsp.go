package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"probquorum/internal/aco"
	"probquorum/internal/apps/semiring"
	"probquorum/internal/graph"
	"probquorum/internal/metrics"
	"probquorum/internal/obs"
)

// apspPass runs the paper's §7 application — all-pairs shortest paths on a
// chain, rows shared through monotone probabilistic-quorum registers — as
// jobs back to back: every aco.RunTCP call listens, dials, iterates to the
// fixed point and tears down. An "op" of this workload is one job: p50_us
// and p99_us are over the jobs' convergence times, ops_per_s is jobs per
// second, and a job has no limit but to converge on the target. Set-up is the
// fixed-point precompute plus the first, cold job.
func apspPass(w workload, o runOpts, setups int) (*measurement, error) {
	m := newMeasurement()
	g := graph.Chain(w.Servers)
	op, target := semiring.NewAPSP(g), semiring.APSPTarget(g)
	var instruments obs.Snapshot // summed over the measured jobs of a traced pass
	base := time.Now()
	jobs := 0

	// job runs one execution and checks its output.
	job := func(measured bool) (aco.TCPResult, time.Duration, error) {
		cfg := aco.TCPConfig{
			Op: op, Target: target,
			Servers: w.Servers, Procs: numClients(), System: w.system(),
			Monotone: true, Pipelined: true,
			Seed: o.seed + uint64(jobs),
		}
		if o.traced && measured {
			cfg.Obs = obs.NewRegistry()
		}
		jobs++
		t0 := time.Now()
		res, err := aco.RunTCP(cfg)
		wall := time.Since(t0)
		if err != nil {
			return res, wall, fmt.Errorf("%s: job %d: %w", w.Name, jobs, err)
		}
		if measured {
			m.attempted++
			if !res.Converged || !aco.VectorsEqual(op, res.Final, target) {
				m.failed++
				m.violations = append(m.violations, fmt.Sprintf("job %d (seed %d): converged=%v, final != APSP target",
					jobs, cfg.Seed, res.Converged))
			}
			if res.Snapshot != nil {
				addSnapshot(&instruments, *res.Snapshot)
			}
			if o.traced {
				start := int64(t0.Sub(base))
				m.spans = append(m.spans, span{
					Trace: int64(jobs), Name: "job", StartNS: start, EndNS: start + int64(wall),
					Attrs: map[string]float64{"converge_ns": float64(res.Elapsed), "iterations": float64(res.Iterations)},
				})
			}
		}
		return res, wall, nil
	}

	for i := 0; i < setups; i++ {
		// A finished job stays reachable until its clients' operation timers
		// expire (2 s), so the live heap after a window of jobs is (jobs per
		// second) x 2 s x (one job's state): a noisy restatement of
		// ops_per_s. heap_mb is instead what the first job leaves reachable.
		var before float64
		if o.heap && i == 0 {
			// Plants closed just before this pass stay reachable the same
			// way, for their opTimeout; let them go first.
			time.Sleep(2 * opTimeout)
			before = liveHeapMB(0)
		}
		t0 := time.Now()
		op, target = semiring.NewAPSP(g), semiring.APSPTarget(g)
		if _, _, err := job(false); err != nil {
			return nil, err
		}
		m.add("setup_s", time.Since(t0).Seconds())
		if o.heap && i == 0 {
			m.add("heap_mb", liveHeapMB(0)-before)
		}
	}
	for t0 := time.Now(); time.Since(t0) < o.warm; {
		if _, _, err := job(false); err != nil {
			return nil, err
		}
	}
	for i := 0; i < o.windows; i++ {
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		cpu0, t0, failed0 := cpuNow(), time.Now(), m.failed
		var converge, walls, iters []float64
		for time.Since(t0) < o.window {
			res, wall, err := job(true)
			if err != nil {
				return nil, err
			}
			converge = append(converge, float64(res.Elapsed)/1e3)
			walls = append(walls, float64(wall)/1e6)
			iters = append(iters, float64(res.Iterations))
		}
		secs, cpu := time.Since(t0).Seconds(), cpuNow()-cpu0
		runtime.ReadMemStats(&ms1)
		n := float64(len(converge))
		slices.Sort(converge)
		m.addAll(map[string]float64{
			"p50_us":                quantile(converge, 0.50),
			"within_limit_frac":     1 - float64(m.failed-failed0)/n,
			"loadgen.p99_us":        quantile(converge, 0.99),
			"ops_per_s":             n / secs,
			"cpu_us_per_op":         float64(cpu) / 1e3 / n,
			"aco.converge_ms":       median(converge) / 1e3,
			"aco.job_ms":            median(walls),
			"aco.iters_per_job.p50": median(iters),
			"go.alloc_b_per_op":     float64(ms1.TotalAlloc-ms0.TotalAlloc) / n,
			"go.gc_per_s":           float64(ms1.NumGC-ms0.NumGC) / secs,
			"go.gc_pause_ms_total":  float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6,
		})
	}
	m.add("loadgen.failed_frac", float64(m.failed)/float64(max(m.attempted, 1)))
	m.add("loadgen.slo_miss_frac", float64(m.failed)/float64(max(m.attempted, 1)))
	if o.traced {
		m.addAll(layerValues(instruments))
	}
	return m, nil
}

// addSnapshot adds src's cumulative instruments (counters, histograms,
// tallies) into dst, the inverse of obs.Snapshot.DeltaSince: each job
// registers fresh instruments, so a pass's totals are the sum over its jobs.
func addSnapshot(dst *obs.Snapshot, src obs.Snapshot) {
	if dst.Counters == nil {
		*dst = obs.Snapshot{
			Counters:  map[string]int64{},
			IntHists:  map[string]obs.IntHistValue{},
			Latencies: map[string]metrics.LatencySnapshot{},
			Tallies:   map[string]obs.TallyValue{},
		}
	}
	for name, v := range src.Counters {
		dst.Counters[name] += v
	}
	for name, h := range src.IntHists {
		d := dst.IntHists[name]
		if d.Counts == nil {
			d.Counts = map[int]int64{}
		}
		for v, c := range h.Counts {
			d.Counts[v] += c
		}
		d.Total += h.Total
		dst.IntHists[name] = d
	}
	for name, l := range src.Latencies {
		d := dst.Latencies[name]
		for b, c := range l.Buckets {
			d.Buckets[b] += c
		}
		d.Count += l.Count
		d.Sum += l.Sum
		d.Max = max(d.Max, l.Max)
		dst.Latencies[name] = d
	}
	for name, t := range src.Tallies {
		d := dst.Tallies[name]
		if d.Counts == nil {
			d.Counts = make([]int64, len(t.Counts))
		}
		for i, c := range t.Counts {
			d.Counts[i] += c
		}
		d.Total += t.Total
		dst.Tallies[name] = d
	}
}
