package main

import (
	"math"
	"sort"
)

// minBeyond is the number of samples that must lie beyond a reported
// tail percentile: with fewer, the figure is one or two outliers, not a
// percentile.
const minBeyond = 10

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle sample (mean of the two middle ones for an
// even count); 0 for no samples, so a phase that did not run still
// prints a finite metric.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the p-quantile (nearest rank) of xs and whether at
// least minBeyond samples lie strictly beyond that rank. The value is
// returned either way so a short smoke run can still print it; only an
// ok value may be reported as a percentile.
func tail(xs []float64, p float64) (v float64, ok bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	s := sorted(xs)
	k := int(math.Ceil(p*float64(n))) - 1
	if k < 0 {
		k = 0
	}
	if k >= n {
		k = n - 1
	}
	return s[k], n-1-k >= minBeyond
}
