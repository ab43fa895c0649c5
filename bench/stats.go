package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0..100) of an ascending-sorted
// sample by linear interpolation between closest ranks; 0 for an empty
// sample.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n == 1 || p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[n-1]
	}
	rank := p / 100 * float64(n-1)
	lo := int(rank)
	frac := rank - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// median returns the middle value of vals (the mean of the middle two for
// an even count) without reordering the caller's slice.
func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return percentile(s, 50)
}

func minMax(vals []float64) (lo, hi float64) {
	if len(vals) == 0 {
		return 0, 0
	}
	lo, hi = vals[0], vals[0]
	for _, v := range vals[1:] {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	return lo, hi
}

// worsening is how far got is on the wrong side of base, as a share of
// base: positive means worse, negative means better. higherBetter selects
// the direction.
func worsening(base, got float64, higherBetter bool) float64 {
	if base == 0 {
		return 0
	}
	if higherBetter {
		return (base - got) / base
	}
	return (got - base) / base
}

// iqrShare is the distance between the first and third quartile as a
// share of the median, with the quartiles computed the way Python's
// statistics.quantiles(values, n=4) does (exclusive method) — the spread
// the acceptance driver computes over ten seeds.
func iqrShare(vals []float64) float64 {
	n := len(vals)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	q := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based rank
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	med := percentile(s, 50)
	if med == 0 {
		return 0
	}
	return math.Abs(q(3)-q(1)) / math.Abs(med)
}
