package obs

import "probquorum/internal/metrics"

// DeltaSince returns the change between a previous snapshot and this one:
// cumulative metrics (counters, histograms, tallies) are subtracted
// element-wise, while point-in-time state (gauges, health) is carried over
// from the current snapshot unchanged. The load harness scrapes a registry
// each interval and diffs consecutive snapshots to report per-interval
// server-side activity alongside its own client-side latency stats.
//
// A metric present now but absent from prev (registered mid-run) is reported
// in full; one that disappeared is dropped. A LatencySnapshot's Max is a
// lifetime high-watermark, not a cumulative sum, so the delta keeps the
// current value (LatencySnapshot.Sub).
func (s Snapshot) DeltaSince(prev Snapshot) Snapshot {
	d := Snapshot{
		Counters:  make(map[string]int64, len(s.Counters)),
		Gauges:    make(map[string]GaugeValue, len(s.Gauges)),
		IntHists:  make(map[string]IntHistValue, len(s.IntHists)),
		Latencies: make(map[string]metrics.LatencySnapshot, len(s.Latencies)),
		Tallies:   make(map[string]TallyValue, len(s.Tallies)),
		Health:    make(map[string]Health, len(s.Health)),
	}
	for name, v := range s.Counters {
		d.Counters[name] = v - prev.Counters[name]
	}
	for name, v := range s.Gauges {
		d.Gauges[name] = v
	}
	for name, h := range s.IntHists {
		dh := IntHistValue{Counts: make(map[int]int64, len(h.Counts)), Total: h.Total}
		p, had := prev.IntHists[name]
		if had {
			dh.Total -= p.Total
		}
		for b, c := range h.Counts {
			if had {
				c -= p.Counts[b]
			}
			if c != 0 {
				dh.Counts[b] = c
			}
		}
		d.IntHists[name] = dh
	}
	for name, l := range s.Latencies {
		d.Latencies[name] = l.Sub(prev.Latencies[name])
	}
	for name, t := range s.Tallies {
		dt := TallyValue{Counts: append([]int64(nil), t.Counts...), Total: t.Total}
		if p, had := prev.Tallies[name]; had {
			dt.Total -= p.Total
			for i := range dt.Counts {
				if i < len(p.Counts) {
					dt.Counts[i] -= p.Counts[i]
				}
			}
		}
		d.Tallies[name] = dt
	}
	for name, h := range s.Health {
		d.Health[name] = h
	}
	return d
}
