// Package experiment contains one runner per table and figure of the
// paper's evaluation, each regenerating the corresponding rows or series
// from the synthetic parent population. The runners are deterministic:
// fixed seeds, fixed parameter grids. cmd/experiments executes the whole
// set once and renders the results as text, CSV or JSON.
//
// The experiment index (DESIGN.md §4) maps each runner to the paper
// artifact it reproduces.
package experiment

import (
	"fmt"
	"io"
	"math"

	"netsample/internal/arts"
	"netsample/internal/core"
	"netsample/internal/stats"
	"netsample/internal/trace"
)

// Result is a completed experiment. Every result embeds the table its
// runner filled, which implements these methods: text, CSV and JSON
// render the same rows.
type Result interface {
	ID() string
	Title() string
	WriteText(w io.Writer) error
	WriteCSV(w io.Writer) error
	WriteJSON(w io.Writer) error
}

// --- Table 1 -----------------------------------------------------------------

// Table1Result is the packet-categorization object support matrix.
type Table1Result struct {
	table
	Objects []string
	T1, T3  map[string]bool
}

// Table1 reproduces Table 1 from the node models' object profiles.
func Table1() *Table1Result {
	r := &Table1Result{T1: map[string]bool{}, T3: map[string]bool{}, table: newTable("table1",
		"packet categorization objects on T1 and T3 backbone nodes",
		column{"object", "object", "%-24s"}, column{"t1", "T1", "%-4s"}, column{"t3", "T3", "%-4s"})}
	for _, name := range arts.SupportedObjectNames(arts.T1) {
		r.Objects = append(r.Objects, name)
		r.T1[name] = true
	}
	for _, name := range arts.SupportedObjectNames(arts.T3) {
		r.T3[name] = true
	}
	mark := func(b bool) cell {
		if b {
			return str("Y")
		}
		return str("N/A")
	}
	for _, name := range r.Objects {
		r.addRow(str(name), mark(r.T1[name]), mark(r.T3[name]))
	}
	return r
}

// --- Table 2 -----------------------------------------------------------------

// Table2Row is one distribution row of Table 2.
type Table2Row struct {
	Name                  string
	Min, Q25, Median, Q75 float64
	Max, Mean, StdDev     float64
	Skew, Kurtosis        float64
}

// Table2Result summarizes the per-second packet, byte, and mean-size
// distributions of the trace hour.
type Table2Result struct {
	table
	TotalPackets int
	Rows         []Table2Row
}

// Table2 reproduces Table 2 on the given parent trace.
func Table2(tr *trace.Trace) (*Table2Result, error) {
	rows := tr.PerSecondSeries()
	if len(rows) == 0 {
		return nil, core.ErrEmptyPopulation
	}
	pps := make([]float64, len(rows))
	bps := make([]float64, len(rows))
	var msz []float64
	for i, r := range rows {
		pps[i] = float64(r.Packets)
		bps[i] = float64(r.Bytes) / 1000 // kB/s, as the paper reports
		if r.Packets > 0 {
			msz = append(msz, r.MeanSize)
		}
	}
	out := &Table2Result{TotalPackets: tr.Len(), table: newTable("table2",
		"per-second packet/byte volume and mean packet size (trace hour)",
		column{"distribution", "distribution", "%-30s"}, column{"min", "min", "%8.1f"},
		column{"p25", "25%", "%8.1f"}, column{"median", "median", "%8.1f"},
		column{"p75", "75%", "%8.1f"}, column{"max", "max", "%8.1f"},
		column{"mean", "mean", "%8.1f"}, column{"stddev", "stddev", "%8.1f"},
		column{"skew", "skew", "%6.2f"}, column{"kurtosis", "kurt", "%6.2f"})}
	out.above = []string{fmt.Sprintf("total packets in hour: %d", out.TotalPackets)}
	for _, d := range []struct {
		name string
		xs   []float64
	}{
		{"packet arrivals (pkts/s)", pps},
		{"byte arrivals (kB/s)", bps},
		{"mean per-sec pkt size (bytes)", msz},
	} {
		row, err := table2Row(d.name, d.xs)
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, row)
		out.addRow(str(row.Name), float(row.Min), float(row.Q25), float(row.Median), float(row.Q75),
			float(row.Max), float(row.Mean), float(row.StdDev), float(row.Skew), float(row.Kurtosis))
	}
	return out, nil
}

func table2Row(name string, xs []float64) (Table2Row, error) {
	d, err := stats.Describe(xs)
	if err != nil {
		return Table2Row{}, err
	}
	qs, err := stats.Quantiles(xs, 0.25, 0.5, 0.75)
	if err != nil {
		return Table2Row{}, err
	}
	return Table2Row{
		Name: name, Min: d.Min, Q25: qs[0], Median: qs[1], Q75: qs[2],
		Max: d.Max, Mean: d.Mean, StdDev: d.StdDev,
		Skew: d.Skewness, Kurtosis: d.Kurtosis,
	}, nil
}

// --- Table 3 -----------------------------------------------------------------

// Table3Result holds the population summaries for both targets.
type Table3Result struct {
	table
	TotalPackets int
	Size         stats.PopulationSummary
	Interarrival stats.PopulationSummary
}

// Table3 reproduces the population summary table from the parent
// population's profile.
func Table3(p *core.Profile) (*Table3Result, error) {
	size, err := p.Summary(core.TargetSize)
	if err != nil {
		return nil, err
	}
	iat, err := p.Summary(core.TargetInterarrival)
	if err != nil {
		return nil, err
	}
	out := &Table3Result{TotalPackets: p.Population().Len(), Size: size, Interarrival: iat, table: newTable("table3",
		"population summary: packet size and interarrival time",
		column{"distribution", "distribution", "%-16s"}, column{"min", "min", "%8.0f"},
		column{"p5", "5%", "%8.0f"}, column{"p25", "25%", "%8.0f"}, column{"median", "median", "%8.0f"},
		column{"p75", "75%", "%8.0f"}, column{"p95", "95%", "%8.0f"}, column{"max", "max", "%8.0f"},
		column{"mean", "mean", "%8.0f"}, column{"stddev", "stddev", "%8.0f"})}
	out.above = []string{fmt.Sprintf("total population = %d packets", out.TotalPackets)}
	for _, d := range []struct {
		name string
		s    stats.PopulationSummary
	}{{"packet size (B)", size}, {"interarrival(us)", iat}} {
		out.addRow(str(d.name), float(d.s.Min), float(d.s.P5), float(d.s.P25), float(d.s.Median),
			float(d.s.P75), float(d.s.P95), float(d.s.Max), float(d.s.Mean), float(d.s.StdDev))
	}
	return out, nil
}

// --- Section 5.1 sample sizes ---------------------------------------------------

// SampleSizeRow is one Cochran sample-size computation.
type SampleSizeRow struct {
	Target      string
	Mean, Std   float64
	AccuracyPct float64
	N           int
	Fraction    float64 // N relative to the population size
}

// SampleSizesResult reproduces the Section 5.1 worked examples on the
// actual population parameters of the trace.
type SampleSizesResult struct {
	table
	Rows []SampleSizeRow
}

// SampleSizes computes Cochran sample sizes for both targets at ±5% and
// ±1% accuracy, 95% confidence, using the population parameters of the
// parent's profile; it reads the moments only.
func SampleSizes(p *core.Profile) (*SampleSizesResult, error) {
	sz, err := p.Moments(core.TargetSize)
	if err != nil {
		return nil, err
	}
	ia, err := p.Moments(core.TargetInterarrival)
	if err != nil {
		return nil, err
	}
	out := &SampleSizesResult{table: newTable("sec5.1",
		"Cochran sample sizes for estimating the mean (95% confidence)",
		column{"target", "target", "%-14s"}, column{"mean", "mean", "%10.1f"},
		column{"stddev", "stddev", "%10.1f"}, column{"accuracy_pct", "r%", "%6.0f"},
		column{"n", "n", "%10d"}, column{"fraction_pct", "fraction", "%9.3f%%"})}
	for _, c := range []struct {
		target    string
		mean, std float64
		pop       int
	}{
		{"packet size", sz.Mean, sz.StdDev, sz.N},
		{"interarrival", ia.Mean, ia.StdDev, ia.N},
	} {
		for _, acc := range []float64{5, 1} {
			n, err := core.SampleSizeForMean(c.mean, c.std, acc, 0.95)
			if err != nil {
				return nil, err
			}
			row := SampleSizeRow{
				Target: c.target, Mean: c.mean, Std: c.std,
				AccuracyPct: acc, N: n,
				Fraction: float64(n) / float64(c.pop),
			}
			out.Rows = append(out.Rows, row)
			out.addRow(str(row.Target), float(row.Mean), float(row.Std), float(row.AccuracyPct),
				integer(row.N), float(100*row.Fraction))
		}
	}
	return out, nil
}

// --- Section 5.2 chi-square acceptance -------------------------------------------

// ChiSquareAcceptanceResult reproduces the paper's every-fiftieth-packet
// chi-square test: across all 50 systematic phases, how many replications
// a statistician would reject at the 0.05 level.
type ChiSquareAcceptanceResult struct {
	table
	Granularity  int
	Replications int
	Target       string
	Rejected     int
	MinSig       float64
}

// ChiSquareAcceptance runs the 50-phase systematic chi-square test for
// one target on the given trace.
func ChiSquareAcceptance(tr *trace.Trace, target core.Target) (*ChiSquareAcceptanceResult, error) {
	ev, err := newEvaluator(tr, target)
	if err != nil {
		return nil, err
	}
	const k = 50
	out := &ChiSquareAcceptanceResult{
		Granularity: k, Replications: k, Target: target.String(), MinSig: math.Inf(1),
	}
	sc := ev.NewScorer()
	for offset := 0; offset < k; offset++ {
		sc.Reset()
		if err := (core.SystematicCount{K: k, Offset: offset}).SelectEach(tr, nil, sc.Visit); err != nil {
			return nil, err
		}
		rep, err := sc.Report()
		if err != nil {
			return nil, err
		}
		if rep.Significance < 0.05 {
			out.Rejected++
		}
		if rep.Significance < out.MinSig {
			out.MinSig = rep.Significance
		}
	}
	out.table = newTable("sec5.2", "chi-square test acceptance of 1-in-50 systematic samples",
		column{name: "target"}, column{name: "granularity"}, column{name: "replications"},
		column{name: "rejected"}, column{name: "min_significance"})
	out.addRow(str(out.Target), integer(k), integer(out.Replications), integer(out.Rejected), float(out.MinSig))
	out.below = []string{fmt.Sprintf(
		"target=%s k=%d: %d of %d replications rejected at the 0.05 level (min significance %.4f)",
		out.Target, k, out.Rejected, out.Replications, out.MinSig)}
	return out, nil
}
