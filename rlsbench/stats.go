package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is the fewest samples that must lie beyond a reported
// percentile's rank, so the tail value is not one or two outliers.
const minBeyond = 10

// quantile returns the exact-sample (nearest-rank) q-quantile of vals:
// the value of rank ⌈q·n⌉ in ascending order. vals is not modified. It
// returns NaN for an empty sample.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	s := sortedCopy(vals)
	return s[rank(len(s), q)-1]
}

// rank is the 1-based nearest-rank position of the q-quantile in a
// sample of n.
func rank(n int, q float64) int {
	k := int(math.Ceil(q*float64(n) - 1e-9))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// supports reports whether a sample of n has at least minBeyond values
// beyond the q-quantile's rank.
func supports(n int, q float64) bool { return n-rank(n, q) >= minBeyond }

// p99 is the exact-sample 99th percentile every reported tail goes
// through. A sample with fewer than minBeyond values beyond the rank is
// an error, which the caller counts as a failed check: its p99 would be
// an outlier, not a tail.
func p99(vals []float64) (float64, error) {
	if !supports(len(vals), 0.99) {
		return 0, fmt.Errorf("p99 of %d samples has fewer than %d beyond it", len(vals), minBeyond)
	}
	return quantile(vals, 0.99), nil
}

func median(vals []float64) float64 { return quantile(vals, 0.5) }

func sortedCopy(vals []float64) []float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return s
}
