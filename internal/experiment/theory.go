package experiment

import (
	"fmt"

	"netsample/internal/core"
	"netsample/internal/trace"
)

// Theory reports the Section 5 efficiency diagnostics for one target:
// for each granularity, the ratio of within-systematic-sample variance
// to population variance, and the observation autocorrelation at lag k.
// Ratios near 1 and autocorrelations near 0 mean the population is
// effectively randomly ordered, which is the paper's explanation for
// why its three packet-driven methods perform alike.
func Theory(tr *trace.Trace, target core.Target) (Result, error) {
	rows, err := core.SystematicEfficiency(tr, target, 2, 10, 50, 250, 1000)
	if err != nil {
		return nil, err
	}
	out := newTable("sec5-theory", fmt.Sprintf("§5 efficiency theory diagnostics, %s target", target),
		column{"granularity", "k", "%8d"}, column{"population_variance", "popVar", "%14.1f"},
		column{"within_variance", "withinVar", "%14.1f"}, column{"ratio", "ratio", "%8.4f"},
		column{"autocorrelation", "autocorr", "%10.4f"})
	for _, d := range rows {
		out.addRow(integer(d.K), float(d.PopulationVariance), float(d.MeanWithinVariance),
			float(d.Ratio), float(d.LagAutocorr))
	}
	return out, nil
}
