package main

import (
	"math"
	"slices"
)

// stat is how every metric is reported: the median over n samples of it
// (windows, probe repetitions or set-ups) with the extremes as the spread.
type stat struct {
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
}

func newStat(unit string, samples []float64) stat {
	if len(samples) == 0 {
		return stat{Unit: unit}
	}
	return stat{
		Unit:   unit,
		Median: median(samples),
		Min:    slices.Min(samples),
		Max:    slices.Max(samples),
		N:      len(samples),
	}
}

// median returns the middle of xs (mean of the middle two for even counts)
// without reordering the caller's slice; 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// quantile returns the exact nearest-rank p-quantile of sorted samples: the
// smallest sample with at least p of the samples at or below it. The raw
// sample slice is kept because loadgen.Hist's 1/16 buckets would quantise a
// median in 6% steps, wider than the bounds here.
func quantile[T ~uint32 | ~int64 | ~float64](sorted []T, p float64) T {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// sat32 clamps a nanosecond count into a sample slot (4.29 s at most; the
// longest outage any workload injects is shorter).
func sat32(ns int64) uint32 {
	if ns < 0 {
		return 0
	}
	if ns > math.MaxUint32 {
		return math.MaxUint32
	}
	return uint32(ns)
}
