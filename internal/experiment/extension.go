package experiment

import (
	"fmt"

	"netsample/internal/core"
	"netsample/internal/dist"
	"netsample/internal/trace"
)

// This file implements the paper's §8 extension experiments:
// proportion-based characterizations (the TCP/UDP port distribution) and
// the harder sampled source-destination traffic matrix.

// CategoricalFigureResult shows mean φ vs sampling granularity for a
// discrete characterization under stratified packet sampling.
type CategoricalFigureResult struct {
	table
	CharName      string
	Cells         int
	Granularities []int
	Means         []float64
}

// categoricalFigure sweeps granularities for one categorizer.
func categoricalFigure(tr *trace.Trace, cat core.Categorizer, minShare float64,
	artifact string, seed uint64) (*CategoricalFigureResult, error) {

	win := window(tr, 1024)
	ev, err := core.NewCategoricalEvaluator(win, cat, minShare)
	if err != nil {
		return nil, err
	}
	r := dist.NewRNG(seed)
	out := &CategoricalFigureResult{
		CharName:      cat.Name(),
		Cells:         ev.NumCells(),
		Granularities: powerOfTwoGrans(1, 13),
		table: newTable(artifact, fmt.Sprintf("§8 extension: mean stratified phi vs fraction, %s (%d cells, 1024 s)",
			cat.Name(), ev.NumCells()), granularity, column{"mean_phi", "mean-phi", "%10.5f"}),
	}
	for _, k := range out.Granularities {
		reps, err := core.ReplicateCategorical(ev, core.StratifiedCount{K: k}, 5, r)
		if err != nil {
			return nil, err
		}
		mean := core.MeanPhi(reps)
		out.Means = append(out.Means, mean)
		out.addRow(integer(k), float(mean))
	}
	return out, nil
}

// ExtPorts runs the port-distribution extension: the proportion-based
// characterization the paper says the methodology extends to directly.
func ExtPorts(tr *trace.Trace) (*CategoricalFigureResult, error) {
	return categoricalFigure(tr, core.PortCategorizer{}, 0, "ext-ports", 81001)
}

// ExtMatrix runs the source-destination matrix extension — the paper's
// "more difficult" case. Cells below 0.05% of traffic are folded into a
// rest category, the remedy for the sparse-cell problem the paper
// anticipates.
func ExtMatrix(tr *trace.Trace) (*CategoricalFigureResult, error) {
	return categoricalFigure(tr, core.NetPairCategorizer{}, 0.0005, "ext-matrix", 82001)
}
