package main

import (
	"math"
	"sort"

	"netsample/internal/stats"
)

// summary is the distribution of one metric's samples within a run:
// the median is the reported value, the rest says how far to trust it.
type summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
}

// summarize computes the median, quartiles and range of xs. Quartiles
// follow Python's statistics.quantiles(xs, n=4) (the exclusive method),
// the convention the benchmark contract uses for run-to-run spread, so
// a spread computed here is the spread the driver computes. A single
// sample is its own quartiles. xs is not modified.
func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	out := summary{N: len(s), Min: s[0], Max: s[len(s)-1]}
	if len(s) == 1 {
		out.Median, out.Q1, out.Q3 = s[0], s[0], s[0]
		return out
	}
	out.Q1, out.Median, out.Q3 = quartile(s, 1), quartile(s, 2), quartile(s, 3)
	return out
}

// quartile returns the i-th of the three cut points dividing sorted s
// (len >= 2) into four groups of equal probability.
func quartile(s []float64, i int) float64 {
	n := len(s)
	m := n + 1
	j := i * m / 4
	if j < 1 {
		j = 1
	}
	if j > n-1 {
		j = n - 1
	}
	// delta is taken after the clamp, so short inputs extrapolate past
	// their ends exactly as Python does ([10, 20] gives 7.5, 15, 22.5).
	delta := i*m - j*4
	return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
}

// spread is the interquartile range as a share of the median — the
// run-to-run (or lap-to-lap) wobble a bound must exceed to mean
// anything. Zero when the median is zero.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs((s.Q3 - s.Q1) / s.Median)
}

// percentile returns the p-th percentile (0 <= p <= 100) of xs by the
// repository's own quantile rule (stats.Quantile, type 7), 0 when xs is
// empty.
func percentile(xs []float64, p float64) float64 {
	v, err := stats.Quantile(xs, p/100)
	if err != nil {
		return 0
	}
	return v
}

// sum adds xs.
func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}
