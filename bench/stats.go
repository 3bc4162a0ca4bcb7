package main

import (
	"math"
	"sort"
)

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value (mean of the two middle values for an even
// count); 0 for no samples.
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

// percentile is the nearest-rank percentile (p in (0,100]).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	k := int(math.Ceil(p/100*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}

// tailLadder are the percentiles a timing may be reported at.
var tailLadder = []float64{50, 75, 90, 95, 99, 99.9}

// tailPercentile returns the highest ladder percentile that still has at
// least ten samples beyond it; the median when none qualifies. A tail read
// off fewer samples is one or two outliers, not a percentile.
func tailPercentile(n int) float64 {
	best := 50.0
	for _, p := range tailLadder {
		// +1e-9: 100·(1−0.9) is 9.999… in floating point.
		if float64(n)*(100-p)/100+1e-9 >= 10 {
			best = p
		}
	}
	return best
}

// quartiles matches Python's statistics.quantiles(xs, n=4) (the exclusive
// method), which is what the acceptance driver computes spreads with.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	m := len(s)
	if m < 2 {
		if m == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	q := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// spread is the inter-quartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, _, q3 := quartiles(xs)
	med := median(xs)
	if med == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(med)
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for i, x := range xs {
		if i == 0 || x > m {
			m = x
		}
	}
	return m
}
