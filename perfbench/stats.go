package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// minBeyond is the sample-count rule for percentiles: a percentile is
// reported only when at least this many samples lie strictly beyond
// it, so a p99 needs 1000 samples and a p90 100. Below that the tail
// is a handful of points and moves with every run.
const minBeyond = 10

// samples is a concurrency-safe list of measurements of one quantity.
type samples struct {
	mu sync.Mutex
	v  []float64
}

// add records one measurement.
func (s *samples) add(x float64) {
	s.mu.Lock()
	s.v = append(s.v, x)
	s.mu.Unlock()
}

// addDur records one duration in the given unit.
func (s *samples) addDur(d, unit time.Duration) { s.add(float64(d) / float64(unit)) }

// values returns a sorted copy of the measurements.
func (s *samples) values() []float64 {
	s.mu.Lock()
	v := append([]float64(nil), s.v...)
	s.mu.Unlock()
	sort.Float64s(v)
	return v
}

// percentile returns the p-th percentile (0 < p < 100) of sorted
// values by the nearest-rank method, and whether the sample-count rule
// allows reporting it: at least minBeyond samples must lie beyond the
// rank. The median (p = 50) only needs one sample.
func percentile(sorted []float64, p float64) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	if p != 50 && n-rank < minBeyond {
		return sorted[rank-1], false
	}
	return sorted[rank-1], true
}

// median returns the median of unsorted values (the mean of the two
// middle values for an even count), or 0 for none.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
