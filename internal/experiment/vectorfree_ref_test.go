package experiment

import (
	"errors"

	"netsample/internal/core"
	"netsample/internal/stats"
	"netsample/internal/trace"
)

// The slice-taking forms the suite used before the population profile:
// each materializes a population-length float vector (or two). They are
// the references the vector-free forms are pinned to, bit for bit, in
// vectorfree_test.go.

// refPopulation is the historical stats.Population: copy, sort, read
// seven type-7 quantiles, then describe.
func refPopulation(xs []float64) (stats.PopulationSummary, error) {
	qs, err := stats.Quantiles(xs, 0, 0.05, 0.25, 0.5, 0.75, 0.95, 1)
	if err != nil {
		return stats.PopulationSummary{}, err
	}
	d, err := stats.Describe(xs)
	if err != nil {
		return stats.PopulationSummary{}, err
	}
	return stats.PopulationSummary{
		Min: qs[0], P5: qs[1], P25: qs[2], Median: qs[3],
		P75: qs[4], P95: qs[5], Max: qs[6],
		Mean: d.Mean, StdDev: d.StdDev,
	}, nil
}

// refIndexOfDispersion is the historical stats.IndexOfDispersion: a
// count vector with one float per window, then Describe over it.
func refIndexOfDispersion(times []int64, windowUS int64) (float64, error) {
	if len(times) == 0 {
		return 0, stats.ErrEmpty
	}
	if windowUS < 1 {
		return 0, errors.New("stats: window must be positive")
	}
	span := times[len(times)-1] - times[0]
	nWindows := span / windowUS
	if nWindows < 2 {
		return 0, errors.New("stats: need at least two full windows")
	}
	counts := make([]float64, nWindows)
	base := times[0]
	for _, t := range times {
		w := (t - base) / windowUS
		if w >= nWindows {
			break // partial final window excluded
		}
		counts[w]++
	}
	d, err := stats.Describe(counts)
	if err != nil {
		return 0, err
	}
	if d.Mean == 0 {
		return 0, errors.New("stats: zero event rate")
	}
	return d.StdDev * d.StdDev / d.Mean, nil
}

// refSystematicEfficiency is the historical single-k
// core.SystematicEfficiency: observations extracted and the population
// described afresh for every granularity.
func refSystematicEfficiency(tr *trace.Trace, target core.Target, k int) (core.EfficiencyDiagnostic, error) {
	if k < 1 {
		return core.EfficiencyDiagnostic{}, core.ErrBadGranularity
	}
	obs := core.PopulationObservations(tr, target)
	if len(obs) < 2*k {
		return core.EfficiencyDiagnostic{}, core.ErrEmptyPopulation
	}
	pop, err := stats.Describe(obs)
	if err != nil {
		return core.EfficiencyDiagnostic{}, err
	}
	d := core.EfficiencyDiagnostic{K: k, PopulationVariance: pop.StdDev * pop.StdDev}

	var sum float64
	phases := 0
	phase := make([]float64, 0, len(obs)/k+1)
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
			return core.EfficiencyDiagnostic{}, err
		}
		sum += s.StdDev * s.StdDev
		phases++
	}
	if phases == 0 {
		return core.EfficiencyDiagnostic{}, core.ErrEmptyPopulation
	}
	d.MeanWithinVariance = sum / float64(phases)
	if d.PopulationVariance > 0 {
		d.Ratio = d.MeanWithinVariance / d.PopulationVariance
	}

	ac, err := stats.Autocorrelation(obs, k)
	if err != nil {
		return core.EfficiencyDiagnostic{}, err
	}
	d.LagAutocorr = ac[0]
	return d, nil
}
