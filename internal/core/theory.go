package core

import (
	"netsample/internal/stats"
	"netsample/internal/trace"
)

// This file implements the diagnostics behind Section 5's efficiency
// theory (after Cochran, and Krishnaiah & Rao): systematic sampling is
// more precise than simple random sampling when the variance *within*
// the systematic samples exceeds the population variance — equivalently,
// when elements k apart are not positively correlated. The paper argues
// its populations are close to randomly ordered, which is why the three
// packet-driven methods perform alike; these functions measure that
// claim on a trace.

// EfficiencyDiagnostic summarizes the §5 comparison for one granularity.
type EfficiencyDiagnostic struct {
	K int
	// PopulationVariance is the variance of the full observation
	// sequence.
	PopulationVariance float64
	// MeanWithinVariance is the mean variance within the k systematic
	// samples (phases).
	MeanWithinVariance float64
	// Ratio is MeanWithinVariance / PopulationVariance: > 1 favors
	// systematic over simple random sampling, ≈ 1 indicates a randomly
	// ordered population.
	Ratio float64
	// LagAutocorr is the observation autocorrelation at lag k — the
	// correlation between consecutive elements of a systematic sample.
	LagAutocorr float64
}

// SystematicEfficiency computes the diagnostic for sampling every k-th
// observation of the target sequence, for each k of ks in order. Every
// observation is read in place from the packets: the population is
// described, and the autocorrelation's mean and denominator computed,
// once for all granularities, and the k phases of each granularity are
// described together in one stride-k walk, into one buffer sized for
// the largest k. Nothing population-length is built.
func SystematicEfficiency(tr *trace.Trace, target Target, ks ...int) ([]EfficiencyDiagnostic, error) {
	pk := tr.Packets
	first := firstObservation(target)
	n := len(pk) - first
	// Describe fails only on an empty population, which every k below
	// refuses before the variance is read.
	var pop [1]stats.Summary
	_ = describePackets(pk, target, 1, pop[:])
	// The autocorrelator fails on fewer than two observations, which
	// every k refuses too, or on zero variance: that error is returned
	// at the first k that passes its checks, where reading the lag
	// would have found it.
	ac, acErr := stats.NewAutocorrelator(n, func(i int) float64 { return observation(pk, target, first+i) })
	most := 0
	for _, k := range ks {
		if k <= n/2 {
			most = max(most, k)
		}
	}
	phases := make([]stats.Summary, most)
	out := make([]EfficiencyDiagnostic, 0, len(ks))
	for _, k := range ks {
		if k < 1 {
			return nil, ErrBadGranularity
		}
		if n < 2*k {
			return nil, ErrEmptyPopulation
		}
		d := EfficiencyDiagnostic{K: k, PopulationVariance: pop[0].StdDev * pop[0].StdDev}

		// Mean within-sample variance over the k phases; n >= 2k gives
		// every phase at least two observations.
		_ = describePackets(pk, target, k, phases)
		var sum float64
		for _, s := range phases[:k] {
			sum += s.StdDev * s.StdDev
		}
		d.MeanWithinVariance = sum / float64(k)
		if d.PopulationVariance > 0 {
			d.Ratio = d.MeanWithinVariance / d.PopulationVariance
		}

		if acErr != nil {
			return nil, acErr
		}
		// n >= 2k puts the lag inside [0, n).
		d.LagAutocorr, _ = ac.At(k)
		out = append(out, d)
	}
	return out, nil
}
