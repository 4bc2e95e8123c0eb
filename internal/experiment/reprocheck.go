package experiment

import (
	"fmt"
	"math"

	"netsample/internal/core"
	"netsample/internal/stats"
)

// Paper-reported reference values (Tables 2 and 3 of Claffy, Polyzos &
// Braun 1993), against which the synthetic population is checked.
var paperReference = []ReproCheckRow{
	{Quantity: "pps mean", Paper: 424.2},
	{Quantity: "pps stddev", Paper: 85.1},
	{Quantity: "pps skew", Paper: 0.96},
	{Quantity: "kB/s mean", Paper: 98.6},
	{Quantity: "size mean (B)", Paper: 232},
	{Quantity: "size stddev (B)", Paper: 236},
	{Quantity: "size p25 (B)", Paper: 40},
	{Quantity: "size median (B)", Paper: 76},
	{Quantity: "size p75 (B)", Paper: 552},
	{Quantity: "size p95 (B)", Paper: 552},
	{Quantity: "size max (B)", Paper: 1500},
	{Quantity: "iat mean (us)", Paper: 2358},
	{Quantity: "iat stddev (us)", Paper: 2734},
	{Quantity: "iat median (us)", Paper: 1600},
	{Quantity: "iat p75 (us)", Paper: 3200},
	{Quantity: "iat p95 (us)", Paper: 7600},
}

// ReproCheckRow is one paper-vs-measured comparison.
type ReproCheckRow struct {
	Quantity string
	Paper    float64
	Measured float64
	RelDiff  float64 // (measured - paper) / paper
}

// ReproCheckResult is the calibration scorecard: every Table 2/3
// population statistic the paper reports, next to this run's measured
// value.
type ReproCheckResult struct {
	table
	Rows []ReproCheckRow
}

// ReproCheck measures the reference quantities on the parent population:
// the per-second series from its packets, the Table 3 rows from its
// profile.
func ReproCheck(p *core.Profile) (*ReproCheckResult, error) {
	rows := p.Population().PerSecondSeries()
	if len(rows) == 0 {
		return nil, stats.ErrEmpty
	}
	pps := make([]float64, len(rows))
	var kbps float64
	for i, r := range rows {
		pps[i] = float64(r.Packets)
		kbps += float64(r.Bytes) / 1000
	}
	kbps /= float64(len(rows))
	ppsD, err := stats.Describe(pps)
	if err != nil {
		return nil, err
	}
	size, err := p.Summary(core.TargetSize)
	if err != nil {
		return nil, err
	}
	iat, err := p.Summary(core.TargetInterarrival)
	if err != nil {
		return nil, err
	}
	measured := map[string]float64{
		"pps mean":        ppsD.Mean,
		"pps stddev":      ppsD.StdDev,
		"pps skew":        ppsD.Skewness,
		"kB/s mean":       kbps,
		"size mean (B)":   size.Mean,
		"size stddev (B)": size.StdDev,
		"size p25 (B)":    size.P25,
		"size median (B)": size.Median,
		"size p75 (B)":    size.P75,
		"size p95 (B)":    size.P95,
		"size max (B)":    size.Max,
		"iat mean (us)":   iat.Mean,
		"iat stddev (us)": iat.StdDev,
		"iat median (us)": iat.Median,
		"iat p75 (us)":    iat.P75,
		"iat p95 (us)":    iat.P95,
	}
	out := &ReproCheckResult{table: newTable("repro-check",
		"calibration scorecard: paper-reported vs measured population statistics",
		column{"quantity", "quantity", "%-18s"}, column{"paper", "paper", "%10.1f"},
		column{"measured", "measured", "%10.1f"}, column{"diff_pct", "diff", "%7.1f%%"})}
	for _, ref := range paperReference {
		row := ref
		row.Measured = measured[ref.Quantity]
		if ref.Paper != 0 {
			row.RelDiff = (row.Measured - ref.Paper) / math.Abs(ref.Paper)
		}
		out.Rows = append(out.Rows, row)
		out.addRow(str(row.Quantity), float(row.Paper), float(row.Measured), float(100*row.RelDiff))
	}
	out.below = []string{fmt.Sprintf("%d of %d quantities within 1%% of the paper", out.ExactMatches(), len(out.Rows))}
	return out, nil
}

// ExactMatches counts rows measured within 1% of the paper value.
func (r *ReproCheckResult) ExactMatches() int {
	n := 0
	for _, row := range r.Rows {
		if math.Abs(row.RelDiff) <= 0.01 {
			n++
		}
	}
	return n
}
