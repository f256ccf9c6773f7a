package main

import (
	"math"
	"slices"
)

// minBeyond is how many samples must lie above a reported percentile: a
// tail percentile resting on fewer is one or two unlucky samples, not a
// property of the system.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile of samples (0 < p < 1) and
// whether at least minBeyond samples lie beyond its rank. Failed operations
// enter as +Inf, so they land in the tail and count as missing any limit.
func percentile(samples []float64, p float64) (float64, bool) {
	n := len(samples)
	rank := int(math.Ceil(p*float64(n) - 1e-9)) // 0.99·n must not round up past an exact integer
	if n == 0 || n-rank < minBeyond {
		return 0, false
	}
	s := slices.Clone(samples)
	slices.Sort(s)
	return s[max(rank, 1)-1], true
}

// median returns the middle of values (the mean of the two middle values
// for an even count); 0 for none.
func median(values []float64) float64 {
	n := len(values)
	if n == 0 {
		return 0
	}
	s := slices.Clone(values)
	slices.Sort(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of values by the
// "exclusive" method of Python's statistics.quantiles(values, n=4), so the
// spreads this program reports match that definition exactly. It needs at
// least two values; with fewer, both quartiles are the lone value (or 0).
func quartiles(values []float64) (q1, q3 float64) {
	ld := len(values)
	if ld < 2 {
		m := median(values)
		return m, m
	}
	s := slices.Clone(values)
	slices.Sort(s)
	q := func(i int) float64 {
		const n = 4
		m := ld + 1
		j := min(max(i*m/n, 1), ld-1)
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q(1), q(3)
}

// mean returns the arithmetic mean of values; 0 for none.
func mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	var sum float64
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}

// frac returns num/den, or 0 when den is 0: a layer the workload never
// used reports zero, not NaN.
func frac(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
