package experiment

import (
	"fmt"
	"math"

	"netsample/internal/core"
	"netsample/internal/stats"
)

// Paper-reported reference values (Tables 2 and 3 of Claffy, Polyzos &
// Braun 1993), against which the synthetic population is checked.
var paperReference = []struct {
	quantity string
	paper    float64
}{
	{"pps mean", 424.2},
	{"pps stddev", 85.1},
	{"pps skew", 0.96},
	{"kB/s mean", 98.6},
	{"size mean (B)", 232},
	{"size stddev (B)", 236},
	{"size p25 (B)", 40},
	{"size median (B)", 76},
	{"size p75 (B)", 552},
	{"size p95 (B)", 552},
	{"size max (B)", 1500},
	{"iat mean (us)", 2358},
	{"iat stddev (us)", 2734},
	{"iat median (us)", 1600},
	{"iat p75 (us)", 3200},
	{"iat p95 (us)", 7600},
}

// ReproCheck is the calibration scorecard: every Table 2/3 population
// statistic the paper reports, next to its value measured on the parent
// population — the per-second series from its packets, the Table 3 rows
// from its profile — and their relative difference.
func ReproCheck(p *core.Profile) (Result, error) {
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
	out := newTable("repro-check", "calibration scorecard: paper-reported vs measured population statistics",
		column{"quantity", "quantity", "%-18s"}, column{"paper", "paper", "%10.1f"},
		column{"measured", "measured", "%10.1f"}, column{"diff_pct", "diff", "%7.1f%%"})
	exact := 0 // quantities measured within 1% of the paper value
	for _, ref := range paperReference {
		m, rel := measured[ref.quantity], 0.0
		if ref.paper != 0 {
			rel = (m - ref.paper) / math.Abs(ref.paper)
		}
		if math.Abs(rel) <= 0.01 {
			exact++
		}
		out.addRow(str(ref.quantity), float(ref.paper), float(m), float(100*rel))
	}
	out.below = []string{fmt.Sprintf("%d of %d quantities within 1%% of the paper", exact, len(paperReference))}
	return out, nil
}
