package experiment

import (
	"fmt"
	"io"

	"netsample/internal/core"
	"netsample/internal/trace"
)

// TheoryResult reports the Section 5 efficiency diagnostics: for each
// granularity, the ratio of within-systematic-sample variance to
// population variance, and the observation autocorrelation at lag k.
// Ratios near 1 and autocorrelations near 0 mean the population is
// effectively randomly ordered, which is the paper's explanation for
// why its three packet-driven methods perform alike.
type TheoryResult struct {
	Target core.Target
	Rows   []core.EfficiencyDiagnostic
}

// Theory computes the diagnostics for one target across granularities.
func Theory(tr *trace.Trace, target core.Target) (*TheoryResult, error) {
	rows, err := core.SystematicEfficiency(tr, target, 2, 10, 50, 250, 1000)
	if err != nil {
		return nil, err
	}
	return &TheoryResult{Target: target, Rows: rows}, nil
}

// ID implements Result.
func (r *TheoryResult) ID() string { return "sec5-theory" }

// Title implements Result.
func (r *TheoryResult) Title() string {
	return fmt.Sprintf("§5 efficiency theory diagnostics, %s target", r.Target)
}

// WriteText implements Result.
func (r *TheoryResult) WriteText(w io.Writer) error {
	if err := header(w, r); err != nil {
		return err
	}
	fmt.Fprintf(w, "%8s %14s %14s %8s %10s\n",
		"k", "popVar", "withinVar", "ratio", "autocorr")
	for _, d := range r.Rows {
		if _, err := fmt.Fprintf(w, "%8d %14.1f %14.1f %8.4f %10.4f\n",
			d.K, d.PopulationVariance, d.MeanWithinVariance, d.Ratio, d.LagAutocorr); err != nil {
			return err
		}
	}
	return nil
}
