// Package metrics implements the disparity metrics of Section 5.2 of the
// paper, which score how well a sampled distribution matches its parent
// population over a common set of bins:
//
//   - χ² — Pearson's chi-square statistic over observed/expected counts;
//   - significance level of χ² under the chi-square distribution (the
//     basis of the classical goodness-of-fit test);
//   - cost — the l1 norm Σ|Oᵢ-Eᵢ| motivating the service-provider
//     charging example;
//   - relative cost — cost × sampling fraction;
//   - X² — Paxson's sample-size-invariant variant Σ(Oᵢ-Eᵢ)²/Eᵢ²;
//   - k — the average normalized deviation sqrt(X²/B);
//   - φ — Fleiss's phi coefficient sqrt(χ²/n) with n = Σ(Eᵢ+Oᵢ), the
//     metric the paper adopts for its comparison, with φ = 0 indicating a
//     sample that perfectly reflects the parent population.
//
// Conventions: "observed" is the sample's binned counts scaled up to the
// population size (observed[i] = sample count × granularity), matching how
// the paper compares a sample against the full trace; "expected" is the
// population's binned counts.
package metrics

import (
	"errors"
	"math"

	"netsample/internal/dist"
)

// ErrShape is returned when observed and expected vectors are unusable:
// mismatched lengths, empty, or containing negative or non-finite counts.
var ErrShape = errors.New("metrics: observed/expected vectors unusable")

// validate checks the shared preconditions of the binned metrics.
// requirePositiveE additionally rejects zero expected counts (division).
func validate(observed, expected []float64, requirePositiveE bool) error {
	if len(observed) == 0 || len(observed) != len(expected) {
		return ErrShape
	}
	for i := range observed {
		o, e := observed[i], expected[i]
		if o < 0 || e < 0 || math.IsNaN(o) || math.IsNaN(e) || math.IsInf(o, 0) || math.IsInf(e, 0) {
			return ErrShape
		}
		if requirePositiveE && e == 0 {
			return ErrShape
		}
	}
	return nil
}

// ChiSquare returns Pearson's χ² = Σ (Oᵢ-Eᵢ)²/Eᵢ. Expected counts must be
// strictly positive.
func ChiSquare(observed, expected []float64) (float64, error) {
	if err := validate(observed, expected, true); err != nil {
		return 0, err
	}
	var sum float64
	for i := range observed {
		d := observed[i] - expected[i]
		sum += d * d / expected[i]
	}
	return sum, nil
}

// Significance returns the significance level (p-value) of the χ²
// statistic computed from observed/expected, i.e. P(X > χ²) with
// B-1-fitted degrees of freedom. fitted is the number of independent
// parameters estimated from the data (0 when the expected counts come
// from the known parent population, as in this study).
func Significance(observed, expected []float64, fitted int) (float64, error) {
	chi2, err := ChiSquare(observed, expected)
	if err != nil {
		return 0, err
	}
	df := len(observed) - 1 - fitted
	if df < 1 {
		return 0, errors.New("metrics: non-positive degrees of freedom")
	}
	return dist.ChiSquareSF(chi2, float64(df))
}

// Cost returns the l1 norm Σ|Oᵢ-Eᵢ| between the two count vectors — the
// absolute packet-count discrepancy a traffic-charging provider would owe
// or lose (Section 5.2).
func Cost(observed, expected []float64) (float64, error) {
	if err := validate(observed, expected, false); err != nil {
		return 0, err
	}
	var sum float64
	for i := range observed {
		sum += math.Abs(observed[i] - expected[i])
	}
	return sum, nil
}

// RelativeCost returns Cost × fraction, the paper's "rcost": the l1
// discrepancy credited for the resource savings of sampling at the given
// sampling fraction (e.g. 1/50). fraction must be in (0, 1].
func RelativeCost(observed, expected []float64, fraction float64) (float64, error) {
	if fraction <= 0 || fraction > 1 || math.IsNaN(fraction) {
		return 0, errors.New("metrics: sampling fraction outside (0,1]")
	}
	c, err := Cost(observed, expected)
	if err != nil {
		return 0, err
	}
	return c * fraction, nil
}

// PaxsonX2 returns X² = Σ (Oᵢ-Eᵢ)²/Eᵢ², the sample-size-invariant variant
// attributed to Paxson in the paper.
func PaxsonX2(observed, expected []float64) (float64, error) {
	if err := validate(observed, expected, true); err != nil {
		return 0, err
	}
	var sum float64
	for i := range observed {
		d := observed[i] - expected[i]
		sum += d * d / (expected[i] * expected[i])
	}
	return sum, nil
}

// AvgNormDeviation returns k = sqrt(X²/B), the average normalized
// deviation across all B bins.
func AvgNormDeviation(observed, expected []float64) (float64, error) {
	x2, err := PaxsonX2(observed, expected)
	if err != nil {
		return 0, err
	}
	return math.Sqrt(x2 / float64(len(observed))), nil
}

// Phi returns Fleiss's φ coefficient sqrt(χ²/n) with n = Σ(Eᵢ+Oᵢ). A
// φ-value of 0 is consistent with a sample that perfectly reflects the
// parent population; larger values indicate poorer samples.
func Phi(observed, expected []float64) (float64, error) {
	chi2, err := ChiSquare(observed, expected)
	if err != nil {
		return 0, err
	}
	var n float64
	for i := range observed {
		n += observed[i] + expected[i]
	}
	if n == 0 {
		return 0, ErrShape
	}
	return math.Sqrt(chi2 / n), nil
}

// Report bundles every Section 5.2 metric for one sample-vs-population
// comparison, as plotted together in Figure 3.
type Report struct {
	ChiSquare    float64
	Significance float64
	Cost         float64
	RelativeCost float64
	PaxsonX2     float64
	AvgNormDev   float64
	Phi          float64
}
