package metrics

import (
	"math"
	"math/bits"
	"math/rand/v2"
	"slices"
	"sync"
	"testing"
	"time"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("value = %d, want 5", got)
	}
	c.Reset()
	if got := c.Value(); got != 0 {
		t.Fatalf("after reset = %d", got)
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 8000 {
		t.Fatalf("concurrent count = %d, want 8000", got)
	}
}

func TestAccessTally(t *testing.T) {
	tally := NewAccessTally(4)
	tally.Touch([]int{0, 1})
	tally.Touch([]int{0, 2})
	tally.Touch([]int{0, 3})
	if got := tally.Total(); got != 3 {
		t.Fatalf("total = %d", got)
	}
	counts := tally.Counts()
	if counts[0] != 3 || counts[1] != 1 {
		t.Fatalf("counts = %v", counts)
	}
	if got := tally.MaxLoad(); got != 1.0 {
		t.Fatalf("max load = %v, want 1.0 (server 0 in every op)", got)
	}
	// max=3, mean=(3+1+1+1)/4=1.5 -> imbalance 2
	if got := tally.Imbalance(); math.Abs(got-2) > 1e-12 {
		t.Fatalf("imbalance = %v, want 2", got)
	}
}

func TestAccessTallyEmpty(t *testing.T) {
	tally := NewAccessTally(3)
	if tally.MaxLoad() != 0 || tally.Imbalance() != 0 {
		t.Fatal("empty tally must report zero load")
	}
}

func TestAccessTallyCountsIsCopy(t *testing.T) {
	tally := NewAccessTally(2)
	tally.Touch([]int{0})
	c := tally.Counts()
	c[0] = 99
	if tally.Counts()[0] != 1 {
		t.Fatal("Counts must return a copy")
	}
}

func TestIntHistogram(t *testing.T) {
	h := NewIntHistogram()
	for _, v := range []int{1, 1, 2, 3, 3, 3} {
		h.Observe(v)
	}
	if got := h.Total(); got != 6 {
		t.Fatalf("total = %d", got)
	}
	if got := h.P(3); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("P(3) = %v, want 0.5", got)
	}
	if got := h.Mean(); math.Abs(got-13.0/6) > 1e-12 {
		t.Fatalf("mean = %v, want %v", got, 13.0/6)
	}
	if got := h.Max(); got != 3 {
		t.Fatalf("max = %d", got)
	}
	if got := h.Outcomes(); len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Fatalf("outcomes = %v", got)
	}
}

func TestIntHistogramQuantile(t *testing.T) {
	h := NewIntHistogram()
	for v := 1; v <= 100; v++ {
		h.Observe(v)
	}
	if got := h.Quantile(0.5); got != 50 {
		t.Fatalf("median = %d, want 50", got)
	}
	if got := h.Quantile(0.99); got != 99 {
		t.Fatalf("p99 = %d, want 99", got)
	}
	if got := h.Quantile(1.0); got != 100 {
		t.Fatalf("p100 = %d, want 100", got)
	}
}

func TestIntHistogramEmpty(t *testing.T) {
	h := NewIntHistogram()
	if h.Mean() != 0 || h.Max() != 0 || h.Quantile(0.5) != 0 || h.P(1) != 0 {
		t.Fatal("empty histogram must report zeros")
	}
}

func TestSummary(t *testing.T) {
	var s Summary
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Observe(v)
	}
	if got := s.N(); got != 8 {
		t.Fatalf("n = %d", got)
	}
	if got := s.Mean(); got != 5 {
		t.Fatalf("mean = %v", got)
	}
	if got := s.Min(); got != 2 {
		t.Fatalf("min = %v", got)
	}
	if got := s.Max(); got != 9 {
		t.Fatalf("max = %v", got)
	}
	// sample stddev of the classic dataset: sqrt(32/7)
	if got, want := s.Stddev(), math.Sqrt(32.0/7); math.Abs(got-want) > 1e-12 {
		t.Fatalf("stddev = %v, want %v", got, want)
	}
}

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Min() != 0 || s.Max() != 0 || s.Stddev() != 0 {
		t.Fatal("empty summary must report zeros")
	}
}

func TestSummarySingleSampleStddev(t *testing.T) {
	var s Summary
	s.Observe(3)
	if s.Stddev() != 0 {
		t.Fatal("stddev of one sample must be 0")
	}
}

func TestLatencyHistBasics(t *testing.T) {
	var h LatencyHist
	if h.Count() != 0 || h.Mean() != 0 || h.Max() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram must report zeros")
	}
	h.Observe(100 * time.Microsecond)
	h.Observe(200 * time.Microsecond)
	h.Observe(300 * time.Microsecond)
	if h.Count() != 3 {
		t.Fatalf("count = %d", h.Count())
	}
	if got := h.Mean(); got != 200*time.Microsecond {
		t.Fatalf("mean = %v", got)
	}
	if got := h.Max(); got != 300*time.Microsecond {
		t.Fatalf("max = %v", got)
	}
}

func TestLatencyHistLogLinear(t *testing.T) {
	var edges, bounds, logUniform, linear []time.Duration
	for e := 4; e < 63; e++ {
		edges = append(edges, 1<<e-1, 1<<e, 1<<e+1)
	}
	for b := 0; b < latencyBuckets; b++ {
		bounds = append(bounds, time.Duration(lowerBound(b)), bucketTop(b))
	}
	r := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 20000; i++ {
		logUniform = append(logUniform, time.Duration(math.Exp(r.Float64()*13+7))) // ~1µs .. ~0.5s
	}
	for i := 1; i <= 1000; i++ {
		linear = append(linear, time.Duration(i)*time.Millisecond)
	}
	tests := []struct {
		name   string
		values []time.Duration
	}{
		{"below 16 exact", []time.Duration{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}},
		{"first octaves", []time.Duration{16, 17, 31, 32, 33, 47, 48, 63, 64, 65}},
		{"octave edges", edges},
		{"every bucket's bounds", bounds},
		{"top", []time.Duration{1 << 62, math.MaxInt64}},
		{"log-uniform", logUniform},
		{"1..1000 ms", linear},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var h LatencyHist
			var octaves [64]int64
			for _, v := range tt.values {
				b := bucketOf(uint64(v))
				lo, top := time.Duration(lowerBound(b)), bucketTop(b)
				if v < lo || v > top {
					t.Fatalf("value %d in bucket %d = [%d, %d]", v, b, lo, top)
				}
				if top-lo > lo/16 {
					t.Fatalf("bucket %d = [%d, %d] wider than 1/16 of its bound", b, lo, top)
				}
				if v < 16 && (lo != v || top != v) {
					t.Fatalf("value %d below 16 in bucket [%d, %d], want exact", v, lo, top)
				}
				h.Observe(v)
				octaves[max(bits.Len64(uint64(v))-1, 0)]++
			}
			s := h.Snapshot()
			if s.Count != int64(len(tt.values)) {
				t.Fatalf("count = %d, want %d", s.Count, len(tt.values))
			}
			if got := s.Octaves(); got != octaves {
				t.Fatalf("octaves = %v, want %v", got, octaves)
			}
			sorted := slices.Clone(tt.values)
			slices.Sort(sorted)
			for _, p := range []float64{0.01, 0.5, 0.9, 0.99, 0.999, 1} {
				want := sorted[max(int(math.Ceil(p*float64(len(sorted))))-1, 0)]
				if got := s.Quantile(p); got < want || got-want > want/16 {
					t.Errorf("p%g = %d, true %d: want an upper bound within 1/16", p*100, got, want)
				}
			}
			if got, want := s.Quantile(1), sorted[len(sorted)-1]; got != want {
				t.Errorf("p100 = %d, want the max %d", got, want)
			}
		})
	}
}

func TestLatencyHistQuantileWithinFactor2(t *testing.T) {
	var h LatencyHist
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	// True p50 = 500ms; the bucketed estimate must be within [500ms, 1s].
	p50 := h.Quantile(0.5)
	if p50 < 500*time.Millisecond || p50 > time.Second {
		t.Fatalf("p50 = %v", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < 990*time.Millisecond || p99 > 2*time.Second {
		t.Fatalf("p99 = %v", p99)
	}
	// The top quantile is clamped to the exact max.
	if got := h.Quantile(1.0); got != h.Max() {
		t.Fatalf("p100 = %v, max = %v", got, h.Max())
	}
}

func TestLatencyHistNegativeClamped(t *testing.T) {
	var h LatencyHist
	h.Observe(-time.Second)
	if h.Max() != 0 {
		t.Fatalf("negative duration not clamped: %v", h.Max())
	}
}

func TestLatencyHistConcurrent(t *testing.T) {
	var h LatencyHist
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				h.Observe(time.Millisecond)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("count = %d", h.Count())
	}
}

func TestSummaryCI95(t *testing.T) {
	var s Summary
	if s.CI95() != 0 {
		t.Fatal("empty summary CI must be 0")
	}
	s.Observe(10)
	if s.CI95() != 0 {
		t.Fatal("single sample CI must be 0")
	}
	for _, v := range []float64{10, 10, 10} {
		s.Observe(v)
	}
	if s.CI95() != 0 {
		t.Fatal("zero-variance CI must be 0")
	}
	s.Observe(20)
	if s.CI95() <= 0 {
		t.Fatal("CI must be positive with spread")
	}
	// Check against the closed form 1.96*s/sqrt(n).
	want := 1.96 * s.Stddev() / math.Sqrt(float64(s.N()))
	if math.Abs(s.CI95()-want) > 1e-12 {
		t.Fatalf("ci = %v, want %v", s.CI95(), want)
	}
}
