package main

import (
	"errors"
	"fmt"
	"io"
)

// Verdicts of one (metric, workload) comparison.
const (
	verdictBetter     = "better"
	verdictWithin     = "within"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// minSamples is how many samples a run needs behind a metric before
// the metric is compared at all. A median cut latency wants 1 000 window
// cuts (fine-windows and adaptive-ddos clear it; the 15-minute-window
// workloads cut a few hundred per run).
var minSamples = map[string]int{"cut_latency_ms_p50": 1000}

// errMixedCohorts refuses a comparison across environments.
var errMixedCohorts = errors.New("cohorts differ: results from different environments are not comparable")

// compareRow is one line of the comparison.
type compareRow struct {
	Workload, Metric string
	A, B             metricValue
	// Delta is B against A as a share of A, signed so that positive is
	// worse whatever the metric's direction.
	Delta   float64
	Bound   float64
	Verdict string
}

// compareSets compares the untraced runs of two sets, a the parent and
// b the change, on every bounded metric both report.
func compareSets(a, b *resultsFile) ([]compareRow, error) {
	if a.Cohort.identity() != b.Cohort.identity() {
		return nil, fmt.Errorf("%w:\n  a: %+v\n  b: %+v", errMixedCohorts, a.Cohort.identity(), b.Cohort.identity())
	}
	var rows []compareRow
	for _, sa := range a.Workloads {
		var sb *workloadSet
		for i := range b.Workloads {
			if b.Workloads[i].Name == sa.Name {
				sb = &b.Workloads[i]
			}
		}
		if sb == nil || sa.E2E == nil || sb.E2E == nil {
			continue
		}
		for _, def := range catalogue {
			if def.Bound == 0 {
				continue
			}
			ma, oka := sa.E2E.Metrics[def.Name]
			mb, okb := sb.E2E.Metrics[def.Name]
			if !oka || !okb {
				continue
			}
			rows = append(rows, compareOne(sa.Name, def, ma, mb))
		}
	}
	return rows, nil
}

// compareOne judges one metric. The change is worse when its median is
// worse than the parent's by more than the bound, better when it is
// better by more than the bound, within otherwise — unless the
// parent's own quartile spread exceeds the bound (or a cut-latency
// median rests on too few cuts), in which case the bound cannot
// resolve a difference and the row says so.
func compareOne(workload string, def metricDef, a, b metricValue) compareRow {
	row := compareRow{Workload: workload, Metric: def.Name, A: a, B: b, Bound: def.Bound}
	if a.Value != 0 {
		row.Delta = (b.Value - a.Value) / a.Value
		if def.Better == "higher" {
			row.Delta = -row.Delta
		}
	}
	switch {
	case a.Dist != nil && a.Dist.spread() > def.Bound:
		row.Verdict = verdictUnresolved
	case samples(a) < minSamples[def.Name] || samples(b) < minSamples[def.Name]:
		row.Verdict = verdictUnresolved
	case row.Delta > def.Bound:
		row.Verdict = verdictWorse
	case row.Delta < -def.Bound:
		row.Verdict = verdictBetter
	default:
		row.Verdict = verdictWithin
	}
	return row
}

// runCompare loads two results.json files and prints the comparison.
func runCompare(w io.Writer, pathA, pathB string) error {
	var a, b resultsFile
	if err := readJSON(pathA, &a); err != nil {
		return err
	}
	if err := readJSON(pathB, &b); err != nil {
		return err
	}
	rows, err := compareSets(&a, &b)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "a: %s (commit %s)\nb: %s (commit %s)\n\n", pathA, a.Cohort.Commit, pathB, b.Cohort.Commit)
	fmt.Fprintf(w, "%-14s %-20s %14s %-24s %14s %-24s %8s %6s  %s\n",
		"workload", "metric", "a median", "a [q1, q3]", "b median", "b [q1, q3]", "delta", "bound", "verdict")
	worse := 0
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %-20s %14.6g %-24s %14.6g %-24s %+7.1f%% %5.0f%%  %s\n",
			r.Workload, r.Metric, r.A.Value, quartiles(r.A), r.B.Value, quartiles(r.B),
			100*r.Delta, 100*r.Bound, r.Verdict)
		if r.Verdict == verdictWorse {
			worse++
		}
	}
	fmt.Fprintf(w, "\ndelta is b against a as a share of a, positive = worse. %d of %d rows worse.\n", worse, len(rows))
	return nil
}

// samples is how many samples stand behind m.
func samples(m metricValue) int {
	if m.Dist == nil {
		return 1
	}
	return m.Dist.N
}

func quartiles(m metricValue) string {
	if m.Dist == nil || m.Dist.N < 2 {
		return "[single sample]"
	}
	return fmt.Sprintf("[%.6g, %.6g]", m.Dist.Q1, m.Dist.Q3)
}
