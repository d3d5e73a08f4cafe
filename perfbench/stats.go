package main

import (
	"math"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a reported percentile:
// a tail figure resting on fewer is noise.
const minTail = 10

// supportedPercentile returns the highest percentile, capped at want,
// that leaves at least minTail of n samples strictly beyond it, and
// false when n is too small for any (n ≤ minTail).
func supportedPercentile(n int, want float64) (float64, bool) {
	if n <= minTail {
		return 0, false
	}
	p := 100 * float64(n-minTail) / float64(n)
	return math.Min(want, p), true
}

// percentile is the nearest-rank percentile of sorted (ascending):
// the smallest sample with at least p% of the samples at or below it.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	// The epsilon keeps a rank that is whole in exact arithmetic from
	// rounding up to the next sample.
	rank := int(math.Ceil(p/100*float64(len(sorted)) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	return sorted[min(rank, len(sorted))-1]
}

// tailBeyond counts the samples strictly above sorted's p-th percentile.
func tailBeyond(sorted []time.Duration, p float64) int {
	v := percentile(sorted, p)
	return len(sorted) - sort.Search(len(sorted), func(i int) bool { return sorted[i] > v })
}

func sortDurations(d []time.Duration) []time.Duration {
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func medianDuration(d []time.Duration) time.Duration { return percentile(sortDurations(d), 50) }

// median of xs (0 for none); the mean of the middle two for even n.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}
