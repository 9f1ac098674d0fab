package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"
)

// WritePrometheus renders a snapshot of the registry in the Prometheus text
// exposition format (version 0.0.4). Metric names are sanitized: characters
// outside [a-zA-Z0-9_:] become '_', so "tcp.client.retries" is exported as
// "tcp_client_retries".
//
// Counters and gauges map directly; gauges additionally export their
// high-watermark as <name>_max. LatencyHists become native histograms with
// cumulative le buckets in seconds, one per power of two of nanoseconds (the
// log-linear sub-buckets folded), plus _sum and _count; IntHistograms
// likewise, with le in outcome units. AccessTallies export one
// <name>_total{server="i"} series per server. Health probes export
// <name>_up, <name>_sessions, <name>_reads_total and <name>_writes_total.
func (r *Registry) WritePrometheus(w io.Writer) error {
	return r.Snapshot().WritePrometheus(w)
}

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format; see Registry.WritePrometheus.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	var b strings.Builder

	for _, name := range sortedKeys(s.Counters) {
		n := promName(name)
		fmt.Fprintf(&b, "# TYPE %s counter\n%s %d\n", n, n, s.Counters[name])
	}

	for _, name := range sortedKeys(s.Gauges) {
		g := s.Gauges[name]
		n := promName(name)
		fmt.Fprintf(&b, "# TYPE %s gauge\n%s %d\n", n, n, g.Value)
		fmt.Fprintf(&b, "# TYPE %s_max gauge\n%s_max %d\n", n, n, g.Max)
	}

	for _, name := range sortedKeys(s.Latencies) {
		l := s.Latencies[name]
		n := promName(name)
		fmt.Fprintf(&b, "# TYPE %s histogram\n", n)
		octaves := l.Octaves()
		var acc int64
		top := 0
		for e, c := range octaves {
			if c > 0 {
				top = e
			}
		}
		for e := 0; e <= top; e++ {
			acc += octaves[e]
			fmt.Fprintf(&b, "%s_bucket{le=%q} %d\n", n, octaveBoundSeconds(e), acc)
		}
		fmt.Fprintf(&b, "%s_bucket{le=\"+Inf\"} %d\n", n, l.Count)
		fmt.Fprintf(&b, "%s_sum %g\n", n, l.Sum.Seconds())
		fmt.Fprintf(&b, "%s_count %d\n", n, l.Count)
	}

	for _, name := range sortedKeys(s.IntHists) {
		h := s.IntHists[name]
		n := promName(name)
		fmt.Fprintf(&b, "# TYPE %s histogram\n", n)
		outcomes := make([]int, 0, len(h.Counts))
		for v := range h.Counts {
			outcomes = append(outcomes, v)
		}
		sort.Ints(outcomes)
		var acc, sum int64
		for _, v := range outcomes {
			acc += h.Counts[v]
			sum += int64(v) * h.Counts[v]
			fmt.Fprintf(&b, "%s_bucket{le=\"%d\"} %d\n", n, v, acc)
		}
		fmt.Fprintf(&b, "%s_bucket{le=\"+Inf\"} %d\n", n, h.Total)
		fmt.Fprintf(&b, "%s_sum %d\n", n, sum)
		fmt.Fprintf(&b, "%s_count %d\n", n, h.Total)
	}

	for _, name := range sortedKeys(s.Tallies) {
		t := s.Tallies[name]
		n := promName(name)
		fmt.Fprintf(&b, "# TYPE %s_total counter\n", n)
		for i, c := range t.Counts {
			fmt.Fprintf(&b, "%s_total{server=\"%d\"} %d\n", n, i, c)
		}
		fmt.Fprintf(&b, "# TYPE %s_ops_total counter\n%s_ops_total %d\n", n, n, t.Total)
	}

	for _, name := range sortedKeys(s.Health) {
		h := s.Health[name]
		n := promName(name)
		up := 0
		if h.Live {
			up = 1
		}
		fmt.Fprintf(&b, "# TYPE %s_up gauge\n%s_up %d\n", n, n, up)
		fmt.Fprintf(&b, "# TYPE %s_sessions gauge\n%s_sessions %d\n", n, n, h.Sessions)
		fmt.Fprintf(&b, "# TYPE %s_reads_total counter\n%s_reads_total %d\n", n, n, h.Reads)
		fmt.Fprintf(&b, "# TYPE %s_writes_total counter\n%s_writes_total %d\n", n, n, h.Writes)
	}

	_, err := io.WriteString(w, b.String())
	return err
}

// octaveBoundSeconds renders the exclusive upper bound of octave e,
// 2^(e+1) ns (the largest duration from octave 62 up), in seconds, in the
// shortest %g form Prometheus accepts as an le label.
func octaveBoundSeconds(e int) string {
	bound := time.Duration(math.MaxInt64)
	if e < 62 {
		bound = time.Duration(1) << uint(e+1)
	}
	return fmt.Sprintf("%g", bound.Seconds())
}

// promName maps a registry name to a legal Prometheus metric name:
// characters outside [a-zA-Z0-9_:] become '_', and a leading digit gains a
// '_' prefix.
func promName(name string) string {
	var b strings.Builder
	for i, c := range name {
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(c >= '0' && c <= '9' && i > 0)
		if c >= '0' && c <= '9' && i == 0 {
			b.WriteByte('_')
			b.WriteRune(c)
			continue
		}
		if ok {
			b.WriteRune(c)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}
