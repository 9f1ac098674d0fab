package loadgen

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"probquorum/internal/obs"
)

// Summary renders the human-readable run report.
func (res *Result) Summary() string {
	var b strings.Builder
	achieved := float64(res.Completed) / res.Elapsed.Seconds()
	fmt.Fprintf(&b, "offered %.0f op/s for %v: issued %d, completed %d, errors %d, shed %d\n",
		res.Rate, res.Elapsed.Round(time.Millisecond), res.Issued, res.Completed, res.Errors, res.Shed)
	fmt.Fprintf(&b, "achieved %.0f op/s  p50 %v  p99 %v  max %v  (max backlog %d slots)\n",
		achieved, res.Total.Quantile(0.50), res.Total.Quantile(0.99), res.Total.Max(), res.MaxBehind)
	for _, kind := range []OpKind{OpRead, OpWrite, OpAtomicRead} {
		ks := res.Kinds[kind.String()]
		if ks == nil || ks.Issued == 0 {
			continue
		}
		fmt.Fprintf(&b, "  %-6s issued %d completed %d errors %d  p50 %v  p99 %v\n",
			kind, ks.Issued, ks.Completed, ks.Errors, ks.Hist.Quantile(0.50), ks.Hist.Quantile(0.99))
	}
	for _, iv := range res.Intervals {
		fmt.Fprintf(&b, "  @%-7v completed %d errors %d  p50 %v  p99 %v",
			iv.Start.Round(time.Millisecond), iv.Completed, iv.Errors, iv.P50, iv.P99)
		if iv.Obs != nil {
			fmt.Fprintf(&b, "  %s", faultCounterLine(iv.Obs))
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "check: %s\n", res.Check)
	if res.Obs != nil {
		fmt.Fprintf(&b, "obs delta: %s\n", obsCounterLine(res.Obs))
	}
	return b.String()
}

// faultCounterLine sums an interval's client fault counters over every
// registered client: deadlines that spent retry budget, the members silent at
// them, and the fault-aware fan-out's suspicions, top-ups and probes.
func faultCounterLine(s *obs.Snapshot) string {
	suffixes := []string{"retries", "timeouts", "suspicions", "top_ups", "probes"}
	parts := make([]string, len(suffixes))
	for i, suffix := range suffixes {
		var sum int64
		for name, v := range s.Counters {
			if strings.HasSuffix(name, "."+suffix) {
				sum += v
			}
		}
		parts[i] = fmt.Sprintf("%s %d", suffix, sum)
	}
	return strings.Join(parts, "  ")
}

// obsCounterLine compresses an obs delta to its non-zero counters in sorted
// order — the at-a-glance view of the run's clients, servers and verdicts.
func obsCounterLine(s *obs.Snapshot) string {
	names := make([]string, 0, len(s.Counters))
	for name, v := range s.Counters {
		if v != 0 {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	parts := make([]string, 0, len(names))
	for _, name := range names {
		parts = append(parts, fmt.Sprintf("%s=%d", name, s.Counters[name]))
	}
	if len(parts) == 0 {
		return "(no counter movement)"
	}
	return strings.Join(parts, " ")
}
