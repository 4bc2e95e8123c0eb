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

// Result is a completed experiment: the table its runner filled, whose
// text, CSV and JSON renderings show the same rows.
type Result interface {
	ID() string
	Title() string
	WriteText(w io.Writer) error
	WriteCSV(w io.Writer) error
	WriteJSON(w io.Writer) error
}

// --- Table 1 -----------------------------------------------------------------

// Table1 reproduces Table 1, the packet-categorization object support
// matrix, from the node models' object profiles.
func Table1() Result {
	out := newTable("table1", "packet categorization objects on T1 and T3 backbone nodes",
		column{"object", "object", "%-24s"}, column{"t1", "T1", "%-4s"}, column{"t3", "T3", "%-4s"})
	t3 := map[string]bool{}
	for _, name := range arts.SupportedObjectNames(arts.T3) {
		t3[name] = true
	}
	// Every object T1 supports is a row; T3 supports a subset.
	for _, name := range arts.SupportedObjectNames(arts.T1) {
		onT3 := str("N/A")
		if t3[name] {
			onT3 = str("Y")
		}
		out.addRow(str(name), str("Y"), onT3)
	}
	return out
}

// --- Table 2 -----------------------------------------------------------------

// Table2 reproduces Table 2 on the given parent trace: the per-second
// packet, byte, and mean-size distributions of the trace hour.
func Table2(tr *trace.Trace) (Result, error) {
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
	out := newTable("table2", "per-second packet/byte volume and mean packet size (trace hour)",
		column{"distribution", "distribution", "%-30s"}, column{"min", "min", "%8.1f"},
		column{"p25", "25%", "%8.1f"}, column{"median", "median", "%8.1f"},
		column{"p75", "75%", "%8.1f"}, column{"max", "max", "%8.1f"},
		column{"mean", "mean", "%8.1f"}, column{"stddev", "stddev", "%8.1f"},
		column{"skew", "skew", "%6.2f"}, column{"kurtosis", "kurt", "%6.2f"})
	out.above = []string{fmt.Sprintf("total packets in hour: %d", tr.Len())}
	for _, d := range []struct {
		name string
		xs   []float64
	}{
		{"packet arrivals (pkts/s)", pps},
		{"byte arrivals (kB/s)", bps},
		{"mean per-sec pkt size (bytes)", msz},
	} {
		s, err := stats.Describe(d.xs)
		if err != nil {
			return nil, err
		}
		qs, err := stats.Quantiles(d.xs, 0.25, 0.5, 0.75)
		if err != nil {
			return nil, err
		}
		out.addRow(str(d.name), float(s.Min), float(qs[0]), float(qs[1]), float(qs[2]),
			float(s.Max), float(s.Mean), float(s.StdDev), float(s.Skewness), float(s.Kurtosis))
	}
	return out, nil
}

// --- Table 3 -----------------------------------------------------------------

// Table3 reproduces the population summary table, packet size and
// interarrival time, from the parent population's profile.
func Table3(p *core.Profile) (Result, error) {
	size, err := p.Summary(core.TargetSize)
	if err != nil {
		return nil, err
	}
	iat, err := p.Summary(core.TargetInterarrival)
	if err != nil {
		return nil, err
	}
	out := newTable("table3", "population summary: packet size and interarrival time",
		column{"distribution", "distribution", "%-16s"}, column{"min", "min", "%8.0f"},
		column{"p5", "5%", "%8.0f"}, column{"p25", "25%", "%8.0f"}, column{"median", "median", "%8.0f"},
		column{"p75", "75%", "%8.0f"}, column{"p95", "95%", "%8.0f"}, column{"max", "max", "%8.0f"},
		column{"mean", "mean", "%8.0f"}, column{"stddev", "stddev", "%8.0f"})
	out.above = []string{fmt.Sprintf("total population = %d packets", p.Population().Len())}
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

// SampleSizes reproduces the Section 5.1 worked examples on the actual
// population parameters of the trace: Cochran sample sizes for both
// targets at ±5% and ±1% accuracy, 95% confidence, from the parent's
// profile; it reads the moments only.
func SampleSizes(p *core.Profile) (Result, error) {
	sz, err := p.Moments(core.TargetSize)
	if err != nil {
		return nil, err
	}
	ia, err := p.Moments(core.TargetInterarrival)
	if err != nil {
		return nil, err
	}
	out := newTable("sec5.1", "Cochran sample sizes for estimating the mean (95% confidence)",
		column{"target", "target", "%-14s"}, column{"mean", "mean", "%10.1f"},
		column{"stddev", "stddev", "%10.1f"}, column{"accuracy_pct", "r%", "%6.0f"},
		column{"n", "n", "%10d"}, column{"fraction_pct", "fraction", "%9.3f%%"})
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
			// The fraction is n relative to the population size.
			out.addRow(str(c.target), float(c.mean), float(c.std), float(acc),
				integer(n), float(100*(float64(n)/float64(c.pop))))
		}
	}
	return out, nil
}

// --- Section 5.2 chi-square acceptance -------------------------------------------

// ChiSquareAcceptance reproduces the paper's every-fiftieth-packet
// chi-square test for one target on the given trace: across all 50
// systematic phases, how many replications a statistician would reject
// at the 0.05 level.
func ChiSquareAcceptance(tr *trace.Trace, target core.Target) (Result, error) {
	ev, err := newEvaluator(tr, target)
	if err != nil {
		return nil, err
	}
	const k = 50
	rejected, minSig := 0, math.Inf(1)
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
			rejected++
		}
		if rep.Significance < minSig {
			minSig = rep.Significance
		}
	}
	out := newTable("sec5.2", "chi-square test acceptance of 1-in-50 systematic samples",
		column{name: "target"}, column{name: "granularity"}, column{name: "replications"},
		column{name: "rejected"}, column{name: "min_significance"})
	out.addRow(str(target.String()), integer(k), integer(k), integer(rejected), float(minSig))
	out.below = []string{fmt.Sprintf(
		"target=%s k=%d: %d of %d replications rejected at the 0.05 level (min significance %.4f)",
		target, k, rejected, k, minSig)}
	return out, nil
}
