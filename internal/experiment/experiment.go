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

// Result is a completed experiment, ready to render.
type Result interface {
	// ID is the paper artifact identifier, e.g. "table2" or "figure8".
	ID() string
	// Title is the artifact's one-line description.
	Title() string
	// WriteText renders the regenerated rows/series.
	WriteText(w io.Writer) error
	// Table returns the same rows as a rectangular table of column names
	// and string cells, for CSV and JSON export to plotting tools.
	Table() (columns []string, rows [][]string)
}

// header renders the shared banner of every experiment.
func header(w io.Writer, r Result) error {
	_, err := fmt.Fprintf(w, "== %s: %s ==\n", r.ID(), r.Title())
	return err
}

// --- Table 1 -----------------------------------------------------------------

// Table1Result is the packet-categorization object support matrix.
type Table1Result struct {
	Objects []string
	T1, T3  map[string]bool
}

// Table1 reproduces Table 1 from the node models' object profiles.
func Table1() *Table1Result {
	r := &Table1Result{T1: map[string]bool{}, T3: map[string]bool{}}
	for _, name := range arts.SupportedObjectNames(arts.T1) {
		r.Objects = append(r.Objects, name)
		r.T1[name] = true
	}
	for _, name := range arts.SupportedObjectNames(arts.T3) {
		r.T3[name] = true
	}
	return r
}

// ID implements Result.
func (r *Table1Result) ID() string { return "table1" }

// Title implements Result.
func (r *Table1Result) Title() string {
	return "packet categorization objects on T1 and T3 backbone nodes"
}

// WriteText implements Result.
func (r *Table1Result) WriteText(w io.Writer) error {
	if err := header(w, r); err != nil {
		return err
	}
	fmt.Fprintf(w, "%-24s %-4s %-4s\n", "object", "T1", "T3")
	for _, name := range r.Objects {
		mark := func(b bool) string {
			if b {
				return "Y"
			}
			return "N/A"
		}
		if _, err := fmt.Fprintf(w, "%-24s %-4s %-4s\n", name, mark(r.T1[name]), mark(r.T3[name])); err != nil {
			return err
		}
	}
	return nil
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
	out := &Table2Result{TotalPackets: tr.Len()}
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

// ID implements Result.
func (r *Table2Result) ID() string { return "table2" }

// Title implements Result.
func (r *Table2Result) Title() string {
	return "per-second packet/byte volume and mean packet size (trace hour)"
}

// WriteText implements Result.
func (r *Table2Result) WriteText(w io.Writer) error {
	if err := header(w, r); err != nil {
		return err
	}
	fmt.Fprintf(w, "total packets in hour: %d\n", r.TotalPackets)
	fmt.Fprintf(w, "%-30s %8s %8s %8s %8s %8s %8s %8s %6s %6s\n",
		"distribution", "min", "25%", "median", "75%", "max", "mean", "stddev", "skew", "kurt")
	for _, row := range r.Rows {
		if _, err := fmt.Fprintf(w, "%-30s %8.1f %8.1f %8.1f %8.1f %8.1f %8.1f %8.1f %6.2f %6.2f\n",
			row.Name, row.Min, row.Q25, row.Median, row.Q75, row.Max,
			row.Mean, row.StdDev, row.Skew, row.Kurtosis); err != nil {
			return err
		}
	}
	return nil
}

// --- Table 3 -----------------------------------------------------------------

// Table3Result holds the population summaries for both targets.
type Table3Result struct {
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
	return &Table3Result{TotalPackets: p.Population().Len(), Size: size, Interarrival: iat}, nil
}

// ID implements Result.
func (r *Table3Result) ID() string { return "table3" }

// Title implements Result.
func (r *Table3Result) Title() string {
	return "population summary: packet size and interarrival time"
}

// WriteText implements Result.
func (r *Table3Result) WriteText(w io.Writer) error {
	if err := header(w, r); err != nil {
		return err
	}
	fmt.Fprintf(w, "total population = %d packets\n", r.TotalPackets)
	fmt.Fprintf(w, "%-16s %8s %8s %8s %8s %8s %8s %8s %8s %8s\n",
		"distribution", "min", "5%", "25%", "median", "75%", "95%", "max", "mean", "stddev")
	p := func(name string, s stats.PopulationSummary) error {
		_, err := fmt.Fprintf(w, "%-16s %8.0f %8.0f %8.0f %8.0f %8.0f %8.0f %8.0f %8.0f %8.0f\n",
			name, s.Min, s.P5, s.P25, s.Median, s.P75, s.P95, s.Max, s.Mean, s.StdDev)
		return err
	}
	if err := p("packet size (B)", r.Size); err != nil {
		return err
	}
	return p("interarrival(us)", r.Interarrival)
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
	out := &SampleSizesResult{}
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
			out.Rows = append(out.Rows, SampleSizeRow{
				Target: c.target, Mean: c.mean, Std: c.std,
				AccuracyPct: acc, N: n,
				Fraction: float64(n) / float64(c.pop),
			})
		}
	}
	return out, nil
}

// ID implements Result.
func (r *SampleSizesResult) ID() string { return "sec5.1" }

// Title implements Result.
func (r *SampleSizesResult) Title() string {
	return "Cochran sample sizes for estimating the mean (95% confidence)"
}

// WriteText implements Result.
func (r *SampleSizesResult) WriteText(w io.Writer) error {
	if err := header(w, r); err != nil {
		return err
	}
	fmt.Fprintf(w, "%-14s %10s %10s %6s %10s %10s\n",
		"target", "mean", "stddev", "r%", "n", "fraction")
	for _, row := range r.Rows {
		if _, err := fmt.Fprintf(w, "%-14s %10.1f %10.1f %6.0f %10d %9.3f%%\n",
			row.Target, row.Mean, row.Std, row.AccuracyPct, row.N, 100*row.Fraction); err != nil {
			return err
		}
	}
	return nil
}

// --- Section 5.2 chi-square acceptance -------------------------------------------

// ChiSquareAcceptanceResult reproduces the paper's every-fiftieth-packet
// chi-square test: across all 50 systematic phases, how many replications
// a statistician would reject at the 0.05 level.
type ChiSquareAcceptanceResult struct {
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
	return out, nil
}

// ID implements Result.
func (r *ChiSquareAcceptanceResult) ID() string { return "sec5.2" }

// Title implements Result.
func (r *ChiSquareAcceptanceResult) Title() string {
	return "chi-square test acceptance of 1-in-50 systematic samples"
}

// WriteText implements Result.
func (r *ChiSquareAcceptanceResult) WriteText(w io.Writer) error {
	if err := header(w, r); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w,
		"target=%s k=%d: %d of %d replications rejected at the 0.05 level (min significance %.4f)\n",
		r.Target, r.Granularity, r.Rejected, r.Replications, r.MinSig)
	return err
}
