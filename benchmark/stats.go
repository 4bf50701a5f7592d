package main

import (
	"math"
	"sort"
)

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between order statistics; 0 for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// medianOfMeans splits xs into consecutive groups of k and returns the
// median of the group means: robust like a median, with the digits of a
// mean where a single reading is a few clock ticks.
func medianOfMeans(xs []float64, k int) float64 {
	var means []float64
	for i := 0; i+k <= len(xs); i += k {
		var sum float64
		for _, x := range xs[i : i+k] {
			sum += x
		}
		means = append(means, sum/float64(k))
	}
	return median(means)
}

// tailPercentile picks the highest of 99/95/90/75 that leaves at least ten
// samples beyond it (the choosing-metrics rule); 50 when none does.
func tailPercentile(n int) float64 {
	for _, p := range []float64{99, 95, 90, 75} {
		if float64(n)*(100-p)/100 >= 10 {
			return p
		}
	}
	return 50
}

// quartiles reproduces Python's statistics.quantiles(values, n=4) — the
// exclusive method the driver uses to judge spread — so -repeat and
// -compare see the same numbers it does. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	q := func(i int) float64 {
		// As Python does: clamp the interval, then take delta against the
		// clamped j, so the end quartiles of a short sample extrapolate.
		j := min(max(i*(ld+1)/4, 1), ld-1)
		delta := i*(ld+1) - 4*j
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(q2)
}
