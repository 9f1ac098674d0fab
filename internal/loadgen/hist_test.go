package loadgen

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"
	"time"

	"probquorum/internal/metrics"
)

// The driver records every operation's latency into a metrics.LatencyHist
// and reports quantiles read back from it; these tests pin that round trip.

func TestHistBucketRoundTrip(t *testing.T) {
	// A value read back as the median of {v, a far larger value} is the top
	// of v's bucket: never below v, at most 1/16 above it, exact below 16,
	// and monotone in v.
	var prev time.Duration = -1
	for _, v := range []time.Duration{0, 1, 15, 16, 17, 100, 1023, 1024, 4096, 1e6, 1e9, 1e12} {
		var h metrics.LatencyHist
		h.Observe(v)
		h.Observe(math.MaxInt64)
		got := h.Quantile(0.5)
		if got < prev {
			t.Fatalf("read-back not monotone at %d: %d < %d", v, got, prev)
		}
		prev = got
		if v >= 16 {
			if got < v || got-v > v/16 {
				t.Errorf("value %d read back as %d: want within [v, v+v/16]", v, got)
			}
		} else if got != v {
			t.Errorf("value %d below 16 must be exact, got %d", v, got)
		}
	}
}

func TestHistQuantileAccuracy(t *testing.T) {
	// A known log-uniform sample recorded after a warm-up batch: the interval
	// quantiles (the difference of two snapshots, as the driver reports them)
	// must land within 7% of the interval's true order statistics and must
	// not see the warm-up.
	var h metrics.LatencyHist
	for i := 0; i < 1000; i++ {
		h.Observe(10 * time.Second)
	}
	prev := h.Snapshot()
	r := rand.New(rand.NewPCG(1, 2))
	vals := make([]int64, 0, 50000)
	for i := 0; i < 50000; i++ {
		v := int64(math.Exp(r.Float64()*13 + 7)) // ~1µs .. ~0.5s in ns
		vals = append(vals, v)
		h.Observe(time.Duration(v))
	}
	interval := h.Snapshot().Sub(prev)
	slices.Sort(vals)
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		got := float64(interval.Quantile(q))
		want := float64(vals[int(q*float64(len(vals)-1))])
		if rel := math.Abs(got-want) / want; rel > 0.07 {
			t.Errorf("p%g = %v, true %v, rel err %.3f > 0.07",
				q*100, time.Duration(int64(got)), time.Duration(int64(want)), rel)
		}
	}
	if interval.Count != 50000 {
		t.Fatalf("count %d", interval.Count)
	}
}
