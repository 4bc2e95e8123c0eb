// Package stats provides the descriptive-statistics substrate for the
// sampling study: moment summaries (mean, standard deviation, skewness,
// kurtosis), exact quantiles, five-number boxplot summaries, histograms
// over arbitrary edges, and per-second time-series aggregation of packet
// traces. These are the quantities the paper reports in Tables 2 and 3 and
// uses to build the boxplots of Figure 6.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned when a statistic is requested of an empty data set.
var ErrEmpty = errors.New("stats: empty data set")

// Summary holds the moment-based description of a data set: the fields the
// paper reports in Table 2 ("Mean", "StdDev.", "Skew", "Kurtosis") plus
// count, min and max. Kurtosis is the raw fourth standardized moment
// (normal = 3), matching the paper's Table 2 convention (its per-second
// packet-size row reports kurtosis 2.9 ≈ normal).
type Summary struct {
	N        int
	Min      float64
	Max      float64
	Mean     float64
	StdDev   float64 // population standard deviation (divide by N)
	Skewness float64
	Kurtosis float64
}

// Describe computes a moment Summary of xs. It returns ErrEmpty for an
// empty slice. A single observation yields zero spread and zero-valued
// shape statistics.
func Describe(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, ErrEmpty
	}
	s := Summary{N: len(xs), Min: xs[0], Max: xs[0]}
	var sum float64
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	n := float64(len(xs))
	s.Mean = sum / n
	var m2, m3, m4 float64
	for _, x := range xs {
		d := x - s.Mean
		d2 := d * d
		m2 += d2
		m3 += d2 * d
		m4 += d2 * d2
	}
	m2 /= n
	m3 /= n
	m4 /= n
	s.StdDev = math.Sqrt(m2)
	if m2 > 0 {
		s.Skewness = m3 / math.Pow(m2, 1.5)
		s.Kurtosis = m4 / (m2 * m2)
	}
	return s, nil
}

// Quantile returns the q-th quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics (type 7, the R/S-plus default the
// paper's environment would have used). xs need not be sorted.
func Quantile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if q < 0 || q > 1 || math.IsNaN(q) {
		return 0, errors.New("stats: quantile fraction outside [0,1]")
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return quantileSorted(sorted, q), nil
}

// Quantiles returns the quantiles of xs at each fraction in qs, sorting xs
// only once. It fails if any fraction is outside [0,1].
func Quantiles(xs []float64, qs ...float64) ([]float64, error) {
	if len(xs) == 0 {
		return nil, ErrEmpty
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	out := make([]float64, len(qs))
	for i, q := range qs {
		if q < 0 || q > 1 || math.IsNaN(q) {
			return nil, errors.New("stats: quantile fraction outside [0,1]")
		}
		out[i] = quantileSorted(sorted, q)
	}
	return out, nil
}

// quantileSorted computes the type-7 quantile of an already-sorted slice.
func quantileSorted(sorted []float64, q float64) float64 {
	return quantileOrder(len(sorted), func(rank int) float64 { return sorted[rank] }, q)
}

// quantileOrder is the type-7 rule over a data set of n values known by
// its order statistics: order(rank) is the rank-th smallest, 0 <= rank
// < n. It reads at most two of them.
func quantileOrder(n int, order func(rank int) float64, q float64) float64 {
	if n == 1 {
		return order(0)
	}
	h := q * float64(n-1)
	lo := int(math.Floor(h))
	hi := lo + 1
	if hi >= n {
		return order(n - 1)
	}
	frac := h - float64(lo)
	return order(lo)*(1-frac) + order(hi)*frac
}

// PopulationSummary is the row format of the paper's Table 3: selected
// quantiles plus mean and standard deviation of a full distribution.
type PopulationSummary struct {
	Min, P5, P25, Median, P75, P95, Max float64
	Mean, StdDev                        float64
}

// Population assembles a Table 3 style summary of a data set from its
// moments d, as Describe returns them, and its order statistics:
// order(rank) is the rank-th smallest of the d.N values. A caller whose
// values are small integers or already sorted therefore summarizes a
// population without materializing or copying it as a float vector.
func Population(d Summary, order func(rank int) float64) (PopulationSummary, error) {
	if d.N == 0 {
		return PopulationSummary{}, ErrEmpty
	}
	q := func(frac float64) float64 { return quantileOrder(d.N, order, frac) }
	return PopulationSummary{
		Min: q(0), P5: q(0.05), P25: q(0.25), Median: q(0.5),
		P75: q(0.75), P95: q(0.95), Max: q(1),
		Mean: d.Mean, StdDev: d.StdDev,
	}, nil
}
