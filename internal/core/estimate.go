package core

import (
	"errors"
	"math"

	"netsample/internal/dist"
)

// This file implements the estimation side of Section 5.1 (after
// Cochran): point estimates and confidence intervals for a population
// mean, total and proportion computed from a sample, with the finite
// population correction the paper notes its own formulas omit. These
// are what an operator actually computes from the sampled packets; the
// coverage experiment in internal/experiment verifies that the nominal
// confidence level holds under the paper's sampling methods.

// Estimate is a point estimate with a symmetric confidence interval.
type Estimate struct {
	Value      float64
	Low, High  float64
	StdError   float64
	Confidence float64
}

// Contains reports whether the interval covers v.
func (e Estimate) Contains(v float64) bool { return v >= e.Low && v <= e.High }

// ErrBadSample reports an unusable sample for estimation.
var ErrBadSample = errors.New("core: sample unusable for estimation")

// EstimateMean estimates the population mean from sample observations,
// at the given confidence level, with a finite population correction
// for population size N (pass 0 for an effectively infinite
// population).
func EstimateMean(sample []float64, populationN int, confidence float64) (Estimate, error) {
	n := len(sample)
	if n < 2 {
		return Estimate{}, ErrBadSample
	}
	if confidence <= 0 || confidence >= 1 {
		return Estimate{}, errors.New("core: confidence must be in (0,1)")
	}
	var sum float64
	for _, x := range sample {
		sum += x
	}
	mean := sum / float64(n)
	var ss float64
	for _, x := range sample {
		d := x - mean
		ss += d * d
	}
	s2 := ss / float64(n-1) // sample variance
	se := math.Sqrt(s2 / float64(n))
	if populationN > 0 && n < populationN {
		// Finite population correction: sqrt((N-n)/N) under
		// without-replacement sampling.
		se *= math.Sqrt(float64(populationN-n) / float64(populationN))
	}
	// Student's t for small samples, where the normal quantile would
	// understate the interval; the two agree to <1% by n ≈ 200.
	var crit float64
	var err error
	if n < 200 {
		crit, err = dist.StudentTQuantile(1-(1-confidence)/2, float64(n-1))
	} else {
		crit, err = dist.NormalQuantile(1 - (1-confidence)/2)
	}
	if err != nil {
		return Estimate{}, err
	}
	return Estimate{
		Value: mean, Low: mean - crit*se, High: mean + crit*se,
		StdError: se, Confidence: confidence,
	}, nil
}

// EstimateProportion estimates the proportion of sample observations
// satisfying the predicate — the paper's suggested extension to
// proportion-based characterizations — using the normal approximation
// with finite population correction.
func EstimateProportion(sample []float64, pred func(float64) bool,
	populationN int, confidence float64) (Estimate, error) {

	n := len(sample)
	if n < 1 {
		return Estimate{}, ErrBadSample
	}
	if confidence <= 0 || confidence >= 1 {
		return Estimate{}, errors.New("core: confidence must be in (0,1)")
	}
	hits := 0
	for _, x := range sample {
		if pred(x) {
			hits++
		}
	}
	p := float64(hits) / float64(n)
	se := math.Sqrt(p * (1 - p) / float64(n))
	if populationN > 0 && n < populationN {
		se *= math.Sqrt(float64(populationN-n) / float64(populationN))
	}
	z, err := dist.NormalQuantile(1 - (1-confidence)/2)
	if err != nil {
		return Estimate{}, err
	}
	lo, hi := p-z*se, p+z*se
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return Estimate{Value: p, Low: lo, High: hi, StdError: se, Confidence: confidence}, nil
}
