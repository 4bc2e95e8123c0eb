package experiment

import (
	"errors"
	"fmt"

	"netsample/internal/core"
	"netsample/internal/flows"
	"netsample/internal/stats"
	"netsample/internal/trace"
)

// The slice-taking forms the suite used before it read the population
// in place: each materializes a population-length float vector (or
// two), or copies packets and flow records. They are the references the
// vector-free forms are pinned to, bit for bit, in vectorfree_test.go.

// refObservations is the historical core.PopulationObservations: every
// packet size, or every interarrival gap, as one float vector.
func refObservations(tr *trace.Trace, target core.Target) []float64 {
	pk := tr.Packets
	if target == core.TargetSize {
		out := make([]float64, len(pk))
		for i, p := range pk {
			out[i] = float64(p.Size)
		}
		return out
	}
	if len(pk) < 2 {
		return nil
	}
	out := make([]float64, len(pk)-1)
	for i := 1; i < len(pk); i++ {
		out[i-1] = float64(pk[i].Time - pk[i-1].Time)
	}
	return out
}

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
	obs := refObservations(tr, target)
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

	ac, err := refAutocorrelation(obs, k)
	if err != nil {
		return core.EfficiencyDiagnostic{}, err
	}
	d.LagAutocorr = ac[0]
	return d, nil
}

// refAutocorrelation is the historical stats.Autocorrelation over a
// materialized observation vector: the mean and the denominator
// recomputed on every call.
func refAutocorrelation(xs []float64, lags ...int) ([]float64, error) {
	if len(xs) < 2 {
		return nil, stats.ErrEmpty
	}
	var mean float64
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	var denom float64
	for _, x := range xs {
		d := x - mean
		denom += d * d
	}
	if denom == 0 {
		return nil, errors.New("stats: zero variance, autocorrelation undefined")
	}
	out := make([]float64, len(lags))
	for i, h := range lags {
		if h < 0 || h >= len(xs) {
			return nil, errors.New("stats: lag outside [0, n)")
		}
		var num float64
		for t := 0; t+h < len(xs); t++ {
			num += (xs[t] - mean) * (xs[t+h] - mean)
		}
		out[i] = num / denom
	}
	return out, nil
}

// refFlowBias is the historical FlowBias: the window decomposed into
// sorted flow records, each 1-in-k sub-trace copied out of it and
// decomposed again, and every record set summarized. Its title and
// columns are FlowBias's.
func refFlowBias(tr *trace.Trace) (Result, error) {
	win := window(tr, 1024)
	const timeout = 2_000_000
	full, err := flows.Decompose(win, timeout)
	if err != nil {
		return nil, err
	}
	fullSum := flows.CountFlows(full)
	fullMean := float64(fullSum.Packets) / float64(fullSum.Flows)
	out := newTable("ext-flows", fmt.Sprintf("flow-level view under packet sampling (%d true flows, mean %.1f pkts)",
		fullSum.Flows, fullMean), granularity, column{"detected_fraction", "detected-frac", "%14.3f"},
		column{"size_bias", "size-bias (x true)", "%18.2f"})
	for _, k := range []int{1, 10, 50, 250, 1000} {
		var sub *trace.Trace
		if k == 1 {
			sub = win
		} else {
			idx, err := core.SystematicCount{K: k}.Select(win, nil)
			if err != nil {
				return nil, err
			}
			sub = &trace.Trace{Start: win.Start, ClockUS: win.ClockUS}
			for _, i := range idx {
				sub.Packets = append(sub.Packets, win.Packets[i])
			}
		}
		fs, err := flows.Decompose(sub, timeout*int64(k))
		if err != nil {
			return nil, err
		}
		sum := flows.CountFlows(fs)
		out.addRow(integer(k), float(float64(sum.Flows)/float64(fullSum.Flows)),
			float(float64(sum.Packets)/float64(sum.Flows)*float64(k)/fullMean))
	}
	return out, nil
}
