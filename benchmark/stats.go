package main

import (
	"math"
	"sort"
	"time"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count) and 0 for an empty slice. xs is not
// modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// sorted: the smallest sample with at least p percent of the samples at
// or below it. It returns 0 for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(float64(len(sorted))*p/100)) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// relSpread is (max − min) ÷ median of xs, the within-run spread the
// benchmark reports for per-round throughput.
func relSpread(xs []float64) float64 {
	m := median(xs)
	if len(xs) == 0 || m == 0 {
		return 0
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		lo = min(lo, x)
		hi = max(hi, x)
	}
	return (hi - lo) / m
}

// sample is one completed, correct op: when it finished, measured from
// the start of its window, and how long the client waited for it.
type sample struct {
	done    time.Duration
	latency time.Duration
}

// opStats summarises the correct ops of one round.
type opStats struct {
	ops       int
	opsPerSec float64
	// milliseconds
	p50, p90, p95, p99, max float64
}

// latencyStats fills the percentiles of s from latencies in
// milliseconds; lat is sorted in place.
func (s *opStats) latencyStats(lat []float64) {
	sort.Float64s(lat)
	s.ops = len(lat)
	s.p50 = percentile(lat, 50)
	s.p90 = percentile(lat, 90)
	s.p95 = percentile(lat, 95)
	s.p99 = percentile(lat, 99)
	s.max = percentile(lat, 100)
}
