package main

import (
	"math"
	"slices"
	"time"
)

// quantile returns the q-quantile (0 <= q <= 1) of xs by the
// nearest-rank method: the smallest value with at least q·n values at
// or below it. xs is sorted in place. An empty slice yields 0.
func quantile[T int64 | float64](xs []T, q float64) T {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	rank := int(math.Ceil(q * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(xs) {
		rank = len(xs)
	}
	return xs[rank-1]
}

// median is the middle value of xs (the mean of the two middle values
// for an even count); xs is sorted in place. An empty slice yields 0.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	slices.Sort(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs with the
// "exclusive" method of Python's statistics.quantiles(xs, n=4), which
// is how run-to-run spread is judged. It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	ld := len(s)
	m := ld + 1
	at := func(i int) float64 {
		// The same integer arithmetic as CPython, extrapolation included.
		j := min(max(i*m/4, 1), ld-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// us converts nanoseconds to microseconds.
func us(ns int64) float64 { return float64(ns) / 1e3 }

// usD converts a duration to microseconds.
func usD(d time.Duration) float64 { return float64(d) / 1e3 }
