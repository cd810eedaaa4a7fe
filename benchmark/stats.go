package main

import (
	"math"
	"sort"
)

// sortedCopy returns v sorted ascending without touching the caller's
// slice.
func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// percentile returns the p-th percentile (0 ≤ p ≤ 100) of an ascending
// slice by linear interpolation between closest ranks; 0 for an empty
// slice.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if hi >= n {
		hi = n - 1
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// median is the 50th percentile of an unsorted slice.
func median(v []float64) float64 { return percentile(sortedCopy(v), 50) }

// mean is the arithmetic mean; 0 for an empty slice.
func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(v, n=4) (the default "exclusive" method) does —
// the rule the acceptance driver applies to ten seeds. It needs at
// least two values.
func quartiles(v []float64) (q1, q3 float64) {
	s := sortedCopy(v)
	n := len(s)
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// relSpread is the run-to-run spread of a metric as a share of its
// median: the interquartile distance once there are enough runs for
// quartiles to mean something, the full range below that.
func relSpread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	med := median(v)
	if med == 0 {
		return 0
	}
	if len(v) < 4 {
		s := sortedCopy(v)
		return (s[len(s)-1] - s[0]) / math.Abs(med)
	}
	q1, q3 := quartiles(v)
	return (q3 - q1) / math.Abs(med)
}
