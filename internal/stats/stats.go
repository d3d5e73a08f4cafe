// Package stats supplies the small numeric toolkit the evaluation
// harness needs: streaming mean/variance aggregation (for the paper's
// error bars), summary formatting, and deterministic per-experiment
// RNG derivation so every figure is reproducible from a single seed.
package stats

import (
	"fmt"
	"math"
)

// ApproxEqual reports whether a and b agree within a relative-absolute
// tolerance: |a−b| ≤ tol·(1 + max(|a|, |b|)). Production code must use
// it (or an ordered tie-break) instead of == / != on float64 values —
// the floateq analyzer in internal/lint enforces that.
func ApproxEqual(a, b, tol float64) bool {
	scale := math.Abs(a)
	if ab := math.Abs(b); ab > scale {
		scale = ab
	}
	return math.Abs(a-b) <= tol*(1+scale)
}

// Sample accumulates observations with Welford's online algorithm,
// which is numerically stable for long runs. The zero value is an
// empty sample ready for use.
type Sample struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add records one observation.
func (s *Sample) Add(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	delta := x - s.mean
	s.mean += delta / float64(s.n)
	s.m2 += delta * (x - s.mean)
}

// N returns the number of observations.
func (s *Sample) N() int { return s.n }

// Mean returns the arithmetic mean (0 for an empty sample).
func (s *Sample) Mean() float64 { return s.mean }

// Var returns the unbiased sample variance (0 for n < 2).
func (s *Sample) Var() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// Std returns the sample standard deviation.
func (s *Sample) Std() float64 { return math.Sqrt(s.Var()) }

// StdErr returns the standard error of the mean, the half-width used
// for the evaluation's error bars.
func (s *Sample) StdErr() float64 {
	if s.n == 0 {
		return 0
	}
	return s.Std() / math.Sqrt(float64(s.n))
}

// Min returns the smallest observation (0 for an empty sample).
func (s *Sample) Min() float64 { return s.min }

// Max returns the largest observation (0 for an empty sample).
func (s *Sample) Max() float64 { return s.max }

// String renders "mean ± stderr (n=..)".
func (s *Sample) String() string {
	return fmt.Sprintf("%.4g ± %.2g (n=%d)", s.Mean(), s.StdErr(), s.n)
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// SplitMix64 advances and hashes a 64-bit state; used to derive
// independent RNG streams from (seed, experiment, point, repetition)
// coordinates without correlation between streams.
func SplitMix64(state uint64) uint64 {
	state += 0x9e3779b97f4a7c15
	z := state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// DeriveSeed combines a master seed with stream coordinates into an
// int64 suitable for math/rand.NewSource.
func DeriveSeed(master int64, coords ...uint64) int64 {
	h := SplitMix64(uint64(master))
	for _, c := range coords {
		h = SplitMix64(h ^ c)
	}
	return int64(h >> 1) // keep it non-negative for readability
}
