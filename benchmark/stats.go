package main

import (
	"math"
	"sort"
)

// percentile returns the p-quantile (0 < p <= 1) of xs by the nearest-rank
// rule on a sorted copy; 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentileSorted(s, p)
}

func percentileSorted(s []float64, p float64) float64 {
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// median is the mean of the two middle values for an even count, so the
// median of a repeated measurement does not jump between two samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// supported reports whether n samples carry the p-quantile: a percentile
// is reported as such only with at least ten samples beyond it.
func supported(p float64, n int) bool {
	return float64(n)*(1-p) >= 10
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method), which is how the
// repeatability criterion measures spread. It needs two samples.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	at := func(k int) float64 {
		// position k*(n+1)/4 on the 1-based sorted sample, interpolated
		// between neighbours j and j+1 (j clamped into the sample, so
		// positions outside it extrapolate, as Python does).
		j := min(max(k*(n+1)/4, 1), n-1)
		d := k*(n+1) - j*4
		return (s[j-1]*float64(4-d) + s[j]*float64(d)) / 4
	}
	return at(1), at(3)
}

// spread is the distance between the quartiles as a share of the median,
// or 0 when there are too few samples to have one.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return math.Abs(q3-q1) / math.Abs(m)
}
