package metrics

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// The histogram is log-linear: each power of two of nanoseconds is split
// into 16 linear sub-buckets, and values below 16 ns get one bucket each.
// Bucket b then holds [lowerBound(b), lowerBound(b+1)), whose width is at
// most 1/16 of its lower bound, and 960 buckets cover every non-negative
// int64.
const (
	subBits        = 4
	subBuckets     = 1 << subBits
	latencyBuckets = (64 - subBits) * subBuckets
)

// bucketOf returns the bucket index of v ns: 16 times the octave's shift
// plus the top five significant bits of v (v itself below 32 ns).
func bucketOf(v uint64) int {
	shift := max(bits.Len64(v)-1-subBits, 0)
	return shift<<subBits + int(v>>uint(shift))
}

// lowerBound returns the smallest value in bucket b, inverting bucketOf.
// lowerBound(latencyBuckets) is 2^63.
func lowerBound(b int) uint64 {
	shift := max(b>>subBits-1, 0)
	return uint64(b-shift<<subBits) << uint(shift)
}

// bucketTop returns the largest value bucket b holds.
func bucketTop(b int) time.Duration { return time.Duration(lowerBound(b+1) - 1) }

// LatencyHist is a concurrency-safe log-linear histogram of durations:
// observation is lock-free (a handful of atomic adds, so it can sit inside
// another component's critical section without nesting locks), memory is
// constant (960 buckets, 7.7 KB, cover 0 ns to 292 years), and a quantile is
// an upper bound within 1/16 of the true value. A snapshot taken during
// concurrent observation may be mid-update across fields (count ahead of sum
// by an in-flight observation, say); once writers quiesce it is exact.
type LatencyHist struct {
	buckets [latencyBuckets]atomic.Int64
	sum     atomic.Int64 // nanoseconds
	max     atomic.Int64 // nanoseconds
}

// Observe records one duration; a negative one counts as zero.
func (h *LatencyHist) Observe(d time.Duration) {
	ns := max(d.Nanoseconds(), 0)
	h.buckets[bucketOf(uint64(ns))].Add(1)
	h.sum.Add(ns)
	for {
		cur := h.max.Load()
		if ns <= cur || h.max.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// Count returns the number of observations (the sum of the bucket counts —
// the histogram keeps no separate counter, so count and buckets can never
// disagree).
func (h *LatencyHist) Count() int64 {
	var n int64
	for b := range h.buckets {
		n += h.buckets[b].Load()
	}
	return n
}

// Mean returns the exact mean of the observations.
func (h *LatencyHist) Mean() time.Duration {
	count := h.Count()
	if count == 0 {
		return 0
	}
	return time.Duration(h.sum.Load()) / time.Duration(count)
}

// Max returns the exact maximum observation.
func (h *LatencyHist) Max() time.Duration { return time.Duration(h.max.Load()) }

// Sum returns the exact sum of the observations.
func (h *LatencyHist) Sum() time.Duration { return time.Duration(h.sum.Load()) }

// Quantile returns an upper bound on the p-quantile (p in (0, 1]); see
// LatencySnapshot.Quantile.
func (h *LatencyHist) Quantile(p float64) time.Duration {
	return h.Snapshot().Quantile(p)
}

// Snapshot returns a point-in-time copy of the histogram; the obs registry
// exports these so a scrape works off one coherent set of buckets.
func (h *LatencyHist) Snapshot() LatencySnapshot {
	s := LatencySnapshot{
		Sum: time.Duration(h.sum.Load()),
		Max: time.Duration(h.max.Load()),
	}
	for b := range h.buckets {
		s.Buckets[b] = h.buckets[b].Load()
		s.Count += s.Buckets[b]
	}
	return s
}

// LatencySnapshot is a copy of a LatencyHist's state. Buckets[b] counts the
// observations of the b-th log-linear bucket.
type LatencySnapshot struct {
	Buckets [latencyBuckets]int64
	Count   int64
	Sum     time.Duration
	Max     time.Duration
}

// Mean returns the exact mean of the snapshotted observations.
func (s LatencySnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / time.Duration(s.Count)
}

// Quantile returns an upper bound on the p-quantile (p in (0, 1]): the
// largest value of the bucket holding it, capped at Max. The answer is never
// below the true quantile and exceeds it by at most 1/16.
func (s LatencySnapshot) Quantile(p float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	need := max(int64(math.Ceil(p*float64(s.Count))), 1)
	var acc int64
	for b, c := range s.Buckets {
		acc += c
		if acc >= need {
			if top := bucketTop(b); top <= s.Max || s.Max == 0 {
				return top
			}
			return s.Max
		}
	}
	return s.Max
}

// Sub returns the observations s holds beyond prev, an earlier snapshot of
// the same histogram: counts and sums are subtracted. Max is a lifetime
// high-water mark, not a sum, so the difference keeps s's.
func (s LatencySnapshot) Sub(prev LatencySnapshot) LatencySnapshot {
	for b := range s.Buckets {
		s.Buckets[b] -= prev.Buckets[b]
	}
	s.Count -= prev.Count
	s.Sum -= prev.Sum
	return s
}

// Octaves folds the buckets into one count per power of two: octave e
// counts the observations in [2^e, 2^(e+1)) ns, and octave 0 also counts 0.
func (s LatencySnapshot) Octaves() (o [64]int64) {
	for b, c := range s.Buckets {
		o[max(bits.Len64(lowerBound(b))-1, 0)] += c
	}
	return o
}
