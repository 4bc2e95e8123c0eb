package experiment

import (
	"fmt"

	"netsample/internal/arts"
	"netsample/internal/metrics"
	"netsample/internal/trace"
)

// ArtsHistResult measures how faithfully the operational pipeline's
// 50-byte packet-length histogram (Table 1's T1-only object) survives
// firmware sampling: the full-trace histogram against scaled sampled
// histograms at several granularities, scored with φ over the occupied
// bins. This is the fidelity the T1 backbone gave up when it stopped
// collecting the histogram on T3 — and what sampling would have
// preserved.
type ArtsHistResult struct {
	table
	Granularities []int
	Phis          []float64
	OccupiedBins  int
}

// ArtsHist runs the histogram-fidelity comparison on the given trace.
func ArtsHist(tr *trace.Trace) (*ArtsHistResult, error) {
	var full arts.LengthHistogram
	for _, p := range tr.Packets {
		full.Record(p, 1)
	}
	// Occupied bins anchor the chi-square terms.
	var idx []int
	for i, c := range full.Bins {
		if c > 0 {
			idx = append(idx, i)
		}
	}
	out := &ArtsHistResult{
		Granularities: []int{10, 50, 250, 1000, 5000},
		OccupiedBins:  len(idx),
		table: newTable("ext-artshist", fmt.Sprintf(
			"fidelity of the 50-byte length histogram under firmware sampling (%d occupied bins)", len(idx)),
			granularity, column{"phi", "phi", "%10.5f"}),
	}
	for _, k := range out.Granularities {
		var sampled arts.LengthHistogram
		for i, p := range tr.Packets {
			if (i+1)%k == 0 {
				sampled.Record(p, uint64(k))
			}
		}
		observed := make([]float64, len(idx))
		expected := make([]float64, len(idx))
		for j, b := range idx {
			observed[j] = float64(sampled.Bins[b])
			expected[j] = float64(full.Bins[b])
		}
		phi, err := metrics.Phi(observed, expected)
		if err != nil {
			return nil, err
		}
		out.Phis = append(out.Phis, phi)
		out.addRow(integer(k), float(phi))
	}
	return out, nil
}
