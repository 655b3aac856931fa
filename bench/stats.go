package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0..1) of sorted by nearest rank.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentiles are the tail points the harness is willing to report,
// lowest first.
var tailPercentiles = []float64{0.9, 0.99, 0.999, 0.9999}

// highestPercentile picks the highest of tailPercentiles that still has at
// least ten samples beyond it — a percentile resting on fewer is one or two
// outliers, not a distribution. Zero means even p90 is unsupported.
func highestPercentile(samples int) float64 {
	best := 0.0
	for _, p := range tailPercentiles {
		beyond := samples - int(math.Ceil(p*float64(samples)))
		if beyond >= 10 {
			best = p
		}
	}
	return best
}

// bandMean is the mean of the sorted samples between the lo- and the
// hi-quantile. The transaction-time distribution has a second mode (a ~4 ms
// cluster holding about 1% of transactions), so the 99th percentile sits on
// a cliff and flips between the modes from run to run; the mean of the band
// just above it — the slowest 1% less the most extreme 0.2% — says how slow
// the slow transactions are and repeats to a few percent.
func bandMean(sorted []float64, lo, hi float64) float64 {
	i, j := int(lo*float64(len(sorted))), int(math.Ceil(hi*float64(len(sorted))))
	if j <= i {
		return quantile(sorted, (lo+hi)/2)
	}
	sum := 0.0
	for _, v := range sorted[i:j] {
		sum += v
	}
	return sum / float64(j-i)
}

// quartileSpread is (Q3-Q1)/median with the quartiles of Python's
// statistics.quantiles(values, n=4) (exclusive method) — the driver's
// steadiness measure, so -compare reproduces its verdict.
func quartileSpread(values []float64) float64 {
	n := len(values)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	at := func(k int) float64 { // k-th quartile cut, exclusive method
		pos := float64(k) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	m := median(s)
	if m == 0 {
		return 0
	}
	return math.Abs(at(3)-at(1)) / math.Abs(m)
}
