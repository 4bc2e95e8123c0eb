package metrics

// Unshipped: no binary, example or facade name reaches what this file
// declares (nslint unreached), so it is compiled for its own tests only.
// It goes, with those tests, as the per-PR cap on test removals allows.

import (
	"math"
	"sort"
)

// KolmogorovSmirnov returns the two-sample KS statistic: the maximum
// absolute difference between the empirical CDFs of sample and
// population. The paper cites KS as "difficult to apply to wide-area
// network traffic data"; it is provided for the bin-sensitivity ablation,
// which compares metric rankings with and without binning.
func KolmogorovSmirnov(sample, population []float64) (float64, error) {
	if len(sample) == 0 || len(population) == 0 {
		return 0, ErrShape
	}
	s := append([]float64(nil), sample...)
	p := append([]float64(nil), population...)
	sort.Float64s(s)
	sort.Float64s(p)
	var d float64
	i, j := 0, 0
	for i < len(s) && j < len(p) {
		// Step past every occurrence of the smaller value in both samples
		// so tied observations move the two ECDFs together.
		x := s[i]
		if p[j] < x {
			x = p[j]
		}
		//nslint:allow floateq exact tie-stepping over stored sorted sample values
		for i < len(s) && s[i] == x {
			i++
		}
		//nslint:allow floateq exact tie-stepping over stored sorted sample values
		for j < len(p) && p[j] == x {
			j++
		}
		fs := float64(i) / float64(len(s))
		fp := float64(j) / float64(len(p))
		if diff := math.Abs(fs - fp); diff > d {
			d = diff
		}
	}
	return d, nil
}

// AndersonDarling returns the A² statistic of the sample against the
// population's empirical CDF (treating the population as the reference
// distribution, consistent with the paper's treatment of the trace as the
// true parent population). Ties in the reference CDF at 0 or 1 are
// clamped away from the singular endpoints using the standard
// plotting-position adjustment (i-0.5)/n.
func AndersonDarling(sample, population []float64) (float64, error) {
	if len(sample) == 0 || len(population) == 0 {
		return 0, ErrShape
	}
	pop := append([]float64(nil), population...)
	sort.Float64s(pop)
	s := append([]float64(nil), sample...)
	sort.Float64s(s)
	n := float64(len(s))
	cdf := func(x float64) float64 {
		// Plotting-position empirical CDF of the population, clamped to
		// (0,1) so the A² logs stay finite.
		k := sort.SearchFloat64s(pop, math.Nextafter(x, math.Inf(1)))
		f := (float64(k) - 0.5) / float64(len(pop))
		const eps = 1e-10
		if f < eps {
			f = eps
		}
		if f > 1-eps {
			f = 1 - eps
		}
		return f
	}
	var sum float64
	for i, x := range s {
		fi := cdf(x)
		fni := cdf(s[len(s)-1-i])
		sum += (2*float64(i) + 1) * (math.Log(fi) + math.Log(1-fni))
	}
	return -n - sum/n, nil
}
