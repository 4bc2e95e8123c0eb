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
// observation of the target sequence, for each k of ks in order. The
// observations are extracted, and the population described, once for
// all granularities; one phase buffer serves every phase of every k.
func SystematicEfficiency(tr *trace.Trace, target Target, ks ...int) ([]EfficiencyDiagnostic, error) {
	obs := PopulationObservations(tr, target)
	// Describe fails only on an empty population, which every k below
	// refuses before the variance is read.
	pop, _ := stats.Describe(obs)
	out := make([]EfficiencyDiagnostic, 0, len(ks))
	var phase []float64
	for _, k := range ks {
		if k < 1 {
			return nil, ErrBadGranularity
		}
		if len(obs) < 2*k {
			return nil, ErrEmptyPopulation
		}
		d := EfficiencyDiagnostic{K: k, PopulationVariance: pop.StdDev * pop.StdDev}

		// Mean within-sample variance over the k phases; the buffer is
		// sized for the longest phase of the smallest k seen so far.
		if longest := len(obs)/k + 1; cap(phase) < longest {
			phase = make([]float64, 0, longest)
		}
		var sum float64
		phases := 0
		for off := 0; off < k; off++ {
			phase = phase[:0]
			for i := off; i < len(obs); i += k {
				phase = append(phase, obs[i])
			}
			if len(phase) < 2 {
				continue
			}
			s, err := stats.Describe(phase)
			if err != nil {
				return nil, err
			}
			sum += s.StdDev * s.StdDev
			phases++
		}
		if phases == 0 {
			return nil, ErrEmptyPopulation
		}
		d.MeanWithinVariance = sum / float64(phases)
		if d.PopulationVariance > 0 {
			d.Ratio = d.MeanWithinVariance / d.PopulationVariance
		}

		ac, err := stats.Autocorrelation(obs, k)
		if err != nil {
			return nil, err
		}
		d.LagAutocorr = ac[0]
		out = append(out, d)
	}
	return out, nil
}
