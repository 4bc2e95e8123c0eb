package experiment

import (
	"fmt"
	"time"

	"netsample/internal/bins"
	"netsample/internal/core"
	"netsample/internal/dist"
	"netsample/internal/metrics"
	"netsample/internal/nsfnet"
	"netsample/internal/stats"
	"netsample/internal/trace"
	"netsample/internal/traffgen"
)

// newEvaluator builds the evaluator for a target with the paper's bins.
func newEvaluator(tr *trace.Trace, target core.Target) (*core.Evaluator, error) {
	var scheme *bins.Edged
	if target == core.TargetInterarrival {
		scheme = bins.Interarrival()
	} else {
		scheme = bins.PacketSize()
	}
	return core.NewEvaluator(tr, target, scheme)
}

// window extracts the first `seconds` of the trace, the exponentially
// increasing time windows the paper samples over.
func window(tr *trace.Trace, seconds int64) *trace.Trace {
	return tr.Window(0, seconds*1_000_000)
}

// powerOfTwoGrans returns 2^lo .. 2^hi.
func powerOfTwoGrans(lo, hi int) []int {
	var out []int
	for e := lo; e <= hi; e++ {
		out = append(out, 1<<e)
	}
	return out
}

// --- Figure 1 -----------------------------------------------------------------

// Figure1Point is one month's totals as reported by the two collection
// processes.
type Figure1Point struct {
	Month      string
	SNMP       uint64 // exact in-path count (billions in the paper; raw here)
	NNStat     uint64 // categorized (scaled when sampling) count
	SamplingOn bool
}

// Figure1Result reproduces the T1 backbone's SNMP-vs-NNStat discrepancy:
// offered load grows month over month against a fixed statistics
// processor; in month `SamplingMonth` the 1-in-50 deployment restores
// agreement.
type Figure1Result struct {
	table
	Points []Figure1Point
}

// Figure1 simulates `months` months of growing load through a T1 node.
// Each month is represented by a short trace at that month's load level;
// capacityPPS is the fixed statistics-processor capacity.
func Figure1(months int, samplingMonth int, capacityPPS float64) (*Figure1Result, error) {
	out := &Figure1Result{table: newTable("figure1",
		"T1 packet totals: SNMP vs NNStat discrepancy under growing load",
		column{"month", "month", "%-10s"}, column{"snmp", "snmp", "%12d"}, column{"nnstat", "nnstat", "%12d"},
		column{"shortfall_pct", "shortfall", "%9.1f%%"}, column{"sampling", "sampling", "%9s"})}
	const monthSeconds = 30
	for m := 0; m < months; m++ {
		// Offered load grows ~8% per month from half the processor
		// capacity, crossing it about a third of the way through.
		pps := capacityPPS * 0.5 * pow108(m)
		cfg := traffgen.Config{
			Seed:      uint64(9100 + m),
			Duration:  monthSeconds * time.Second,
			ClockUS:   400,
			TargetPPS: pps,
			Envelope:  traffgen.EnvelopeConfig{Sigma: 0.1, Rho: 0.9, EpochSeconds: 5},
		}
		tr, err := traffgen.Generate(cfg)
		if err != nil {
			return nil, err
		}
		sampleK := 0
		if m >= samplingMonth {
			sampleK = 50
		}
		node := nsfnet.NewT1Node(capacityPPS, 32, sampleK)
		node.ProcessTrace(tr)
		p := Figure1Point{
			Month:      fmt.Sprintf("month-%02d", m+1),
			SNMP:       node.SNMP.InPackets,
			NNStat:     node.CategorizedPackets(),
			SamplingOn: sampleK > 0,
		}
		out.Points = append(out.Points, p)
		short, mark := 0.0, ""
		if p.SNMP > 0 {
			short = 1 - float64(p.NNStat)/float64(p.SNMP)
		}
		if p.SamplingOn {
			mark = "1-in-50"
		}
		out.addRow(str(p.Month), integer(p.SNMP), integer(p.NNStat), float(100*short), str(mark))
	}
	return out, nil
}

// pow108 returns 1.08^m.
func pow108(m int) float64 {
	v := 1.0
	for i := 0; i < m; i++ {
		v *= 1.08
	}
	return v
}

// --- Figure 3 -----------------------------------------------------------------

// Figure3Point is the full metric report of one granularity.
type Figure3Point struct {
	Granularity int
	SampleSize  int
	Report      metrics.Report
}

// Figure3Result plots every disparity metric against exponentially
// increasing sampling granularity for systematic sampling of the
// packet-size target over a 2048-second interval.
type Figure3Result struct {
	table
	IntervalSeconds int64
	Points          []Figure3Point
}

// Figure3 runs the metric comparison on the given parent trace.
func Figure3(tr *trace.Trace) (*Figure3Result, error) {
	win := window(tr, 2048)
	ev, err := newEvaluator(win, core.TargetSize)
	if err != nil {
		return nil, err
	}
	out := &Figure3Result{IntervalSeconds: 2048, table: newTable("figure3",
		"disparity metrics vs sampling granularity (2048 s interval)",
		granularity, column{"n", "n", "%9d"}, column{"chi2", "chi2", "%12.2f"},
		column{"one_minus_sig", "1-sig", "%8.4f"}, column{"cost", "cost", "%12.0f"},
		column{"rcost", "rcost", "%12.2f"}, column{"x2", "X2", "%10.6f"},
		column{name: "k"}, // the mean normalized deviation, exported only
		column{"phi", "phi", "%10.6f"})}
	sc := ev.NewScorer()
	for _, k := range powerOfTwoGrans(1, 15) {
		sc.Reset()
		if err := (core.SystematicCount{K: k}).SelectEach(win, nil, sc.Visit); err != nil {
			return nil, err
		}
		rep, err := sc.Report()
		if err != nil {
			return nil, err
		}
		out.Points = append(out.Points, Figure3Point{Granularity: k, SampleSize: sc.SampleSize(), Report: rep})
		out.addRow(integer(k), integer(sc.SampleSize()), float(rep.ChiSquare), float(1-rep.Significance),
			float(rep.Cost), float(rep.RelativeCost), float(rep.PaxsonX2), float(rep.AvgNormDev), float(rep.Phi))
	}
	return out, nil
}

// --- Figures 4 and 5: histograms under sampling ---------------------------------

// HistogramFigureResult shows a target's binned proportions at several
// systematic sampling granularities over a 1024 s interval, with φ
// scores — Figures 4 (packet size) and 5 (interarrival).
type HistogramFigureResult struct {
	table
	Target        core.Target
	Labels        []string
	Population    []float64
	Granularities []int
	Proportions   [][]float64
	Phis          []float64
}

// histogramFigure computes Figure 4 or 5.
func histogramFigure(tr *trace.Trace, target core.Target, figure string) (*HistogramFigureResult, error) {
	win := window(tr, 1024)
	var scheme *bins.Edged
	if target == core.TargetInterarrival {
		scheme = bins.Interarrival()
	} else {
		scheme = bins.PacketSize()
	}
	ev, err := core.NewEvaluator(win, target, scheme)
	if err != nil {
		return nil, err
	}
	out := &HistogramFigureResult{
		Target:        target,
		Population:    ev.PopulationProportions(),
		Granularities: []int{4, 64, 256, 2048, 16384},
	}
	for i := 0; i < scheme.NumBins(); i++ {
		out.Labels = append(out.Labels, scheme.Label(i))
	}
	cols := []column{{"bin", "bin", "%-16s"}, {"population", "population", "%10.4f"}}
	for _, k := range out.Granularities {
		cols = append(cols, column{fmt.Sprint("k", k), fmt.Sprintf("%7s=%-5d", "1/f", k), "%13.4f"})
	}
	out.table = newTable(figure, fmt.Sprintf("%s distribution at five systematic sampling granularities (1024 s)", target), cols...)
	sc := ev.NewScorer()
	for _, k := range out.Granularities {
		sc.Reset()
		if err := (core.SystematicCount{K: k}).SelectEach(win, nil, sc.Visit); err != nil {
			return nil, err
		}
		counts := sc.Counts()
		var n float64
		for _, c := range counts {
			n += c
		}
		props := make([]float64, len(counts))
		for i, c := range counts {
			props[i] = c / n
		}
		out.Proportions = append(out.Proportions, props)
		rep, err := sc.Report()
		if err != nil {
			return nil, err
		}
		out.Phis = append(out.Phis, rep.Phi)
	}
	for b, label := range out.Labels {
		row := []cell{str(label), float(out.Population[b])}
		for g := range out.Granularities {
			row = append(row, float(out.Proportions[g][b]))
		}
		out.addRow(row...)
	}
	// The φ row has no population share and prints one more digit.
	row := []cell{str("phi"), str("0")}
	for _, phi := range out.Phis {
		row = append(row, cell{kind: 'f', f: phi, prec: 5})
	}
	out.addRow(row...)
	return out, nil
}

// Figure4 reproduces the packet-size histograms under sampling.
func Figure4(tr *trace.Trace) (*HistogramFigureResult, error) {
	return histogramFigure(tr, core.TargetSize, "figure4")
}

// Figure5 reproduces the interarrival histograms under sampling.
func Figure5(tr *trace.Trace) (*HistogramFigureResult, error) {
	return histogramFigure(tr, core.TargetInterarrival, "figure5")
}

// --- Figures 6 and 7: boxplots and means of systematic φ -------------------------

// Figure6Row is the replication boxplot at one granularity.
type Figure6Row struct {
	Granularity  int
	Replications int
	Box          stats.Boxplot
}

// Figure6Result holds φ-score boxplots for systematic packet-size
// sampling as the sampling fraction decreases (1024 s interval).
type Figure6Result struct {
	table
	Rows []Figure6Row
}

// Figure6 computes the boxplots: replications vary the systematic start
// offset, as the paper does.
func Figure6(tr *trace.Trace) (*Figure6Result, error) {
	win := window(tr, 1024)
	ev, err := newEvaluator(win, core.TargetSize)
	if err != nil {
		return nil, err
	}
	r := dist.NewRNG(6001)
	out := &Figure6Result{table: newTable("figure6",
		"ranges of systematic phi scores, packet size, vs sampling fraction (1024 s)",
		granularity, column{"replications", "reps", "%5d"}, column{"low", "loWhisk", "%10.5f"},
		column{"q1", "q1", "%10.5f"}, column{"median", "median", "%10.5f"}, column{"q3", "q3", "%10.5f"},
		column{"high", "hiWhisk", "%10.5f"}, column{"outliers", "outliers", "%9d"})}
	for _, k := range powerOfTwoGrans(2, 15) {
		count := 20
		if k < count {
			count = k
		}
		reps, err := core.SystematicOffsets(ev, k, count, r)
		if err != nil {
			return nil, err
		}
		box, err := stats.NewBoxplot(core.PhiValues(reps))
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, Figure6Row{Granularity: k, Replications: count, Box: box})
		out.addRow(integer(k), integer(count), float(box.LowWhisker), float(box.Q1), float(box.Median),
			float(box.Q3), float(box.HighWhisker), integer(len(box.Outliers)))
	}
	return out, nil
}

// Figure7Result is the means of Figure 6's boxplots.
type Figure7Result struct {
	table
	Granularities []int
	Means         []float64
}

// Figure7 computes the mean systematic φ at each granularity.
func Figure7(tr *trace.Trace) (*Figure7Result, error) {
	f6, err := Figure6(tr)
	if err != nil {
		return nil, err
	}
	out := &Figure7Result{table: newTable("figure7",
		"means of systematic phi scores, packet size, vs sampling fraction (1024 s)",
		granularity, column{"mean_phi", "mean-phi", "%10.5f"})}
	for _, row := range f6.Rows {
		out.Granularities = append(out.Granularities, row.Granularity)
		out.Means = append(out.Means, row.Box.Mean)
		out.addRow(integer(row.Granularity), float(row.Box.Mean))
	}
	return out, nil
}

// --- Figures 8 and 9: the five methods ---------------------------------------------

// MethodSeries is one method's mean φ across granularities.
type MethodSeries struct {
	Method string
	Means  []float64
}

// MethodsFigureResult compares all five sampling methods' mean φ scores
// across sampling fractions for one target (Figures 8 and 9).
type MethodsFigureResult struct {
	table
	Figure        string
	Target        core.Target
	Granularities []int
	Series        []MethodSeries
}

// methodsFigure runs the five-method comparison.
func methodsFigure(tr *trace.Trace, target core.Target, figure string, seed uint64) (*MethodsFigureResult, error) {
	win := window(tr, 1024)
	ev, err := newEvaluator(win, target)
	if err != nil {
		return nil, err
	}
	r := dist.NewRNG(seed)
	out := &MethodsFigureResult{
		Figure:        figure,
		Target:        target,
		Granularities: powerOfTwoGrans(1, 15),
	}
	const replications = 5

	// Systematic sampling replicates over start offsets, the others
	// over draws of r.
	methods := []struct {
		name      string
		replicate func(k int) ([]core.Replication, error)
	}{
		{"systematic/packet", func(k int) ([]core.Replication, error) {
			return core.SystematicOffsets(ev, k, replications, r)
		}},
		{"stratified/packet", func(k int) ([]core.Replication, error) {
			return core.Replicate(ev, core.StratifiedCount{K: k}, replications, r)
		}},
		{"random/packet", func(k int) ([]core.Replication, error) {
			return core.Replicate(ev, core.SimpleRandom{K: k}, replications, r)
		}},
		{"systematic/timer", func(k int) ([]core.Replication, error) {
			return systematicTimerOffsets(ev, k, replications, false)
		}},
		{"stratified/timer", func(k int) ([]core.Replication, error) {
			s, err := core.NewStratifiedTimer(win, float64(k))
			if err != nil {
				return nil, err
			}
			return core.Replicate(ev, s, replications, r)
		}},
	}
	for _, m := range methods {
		series := MethodSeries{Method: m.name}
		for _, k := range out.Granularities {
			reps, err := m.replicate(k)
			if err != nil {
				return nil, err
			}
			series.Means = append(series.Means, core.MeanPhi(reps))
		}
		out.Series = append(out.Series, series)
	}
	cols := []column{granularity}
	for _, s := range out.Series {
		cols = append(cols, column{s.Method, s.Method, "%18.5f"})
	}
	out.table = newTable(figure, fmt.Sprintf("mean phi vs sampling fraction for five methods, %s target (1024 s)", target), cols...)
	for i, k := range out.Granularities {
		row := []cell{integer(k)}
		for _, s := range out.Series {
			row = append(row, float(s.Means[i]))
		}
		out.addRow(row...)
	}
	return out, nil
}

// systematicTimerOffsets replicates systematic timer sampling of ev's
// population by varying the first tick within one period. Each tick
// selects the next arrival, the paper's rule, or with previous the
// latest arrival before it.
func systematicTimerOffsets(ev *core.Evaluator, k, count int, previous bool) ([]core.Replication, error) {
	pop := ev.Population()
	period, err := core.PeriodForGranularity(pop, float64(k))
	if err != nil {
		return nil, err
	}
	return core.ReplicateEach(ev, count, func(i int, visit func(int)) error {
		s := core.SystematicTimer{PeriodUS: period, OffsetUS: int64(i) * period / int64(count), SelectPrevious: previous}
		return s.SelectEach(pop, nil, visit)
	})
}

// Figure8 compares the methods on the packet-size target.
func Figure8(tr *trace.Trace) (*MethodsFigureResult, error) {
	return methodsFigure(tr, core.TargetSize, "figure8", 8001)
}

// Figure9 compares the methods on the interarrival target.
func Figure9(tr *trace.Trace) (*MethodsFigureResult, error) {
	return methodsFigure(tr, core.TargetInterarrival, "figure9", 9001)
}

// --- Figures 10 and 11: elapsed-interval effect -------------------------------------

// ElapsedFigureResult shows mean systematic φ as a function of the
// elapsed sampling interval at several fractions (Figures 10 and 11).
type ElapsedFigureResult struct {
	table
	Target        core.Target
	Minutes       []int
	Granularities []int
	Means         [][]float64 // [granularity][minute]
}

// elapsedFigure computes one of the two elapsed-interval figures.
func elapsedFigure(tr *trace.Trace, target core.Target, figure string, seed uint64) (*ElapsedFigureResult, error) {
	out := &ElapsedFigureResult{
		Target:        target,
		Minutes:       []int{1, 2, 4, 8, 16, 32, 60},
		Granularities: []int{16, 256, 4096},
	}
	r := dist.NewRNG(seed)
	for _, k := range out.Granularities {
		var row []float64
		for _, min := range out.Minutes {
			win := window(tr, int64(min)*60)
			ev, err := newEvaluator(win, target)
			if err != nil {
				return nil, err
			}
			count := 5
			if k < count {
				count = k
			}
			reps, err := core.SystematicOffsets(ev, k, count, r)
			if err != nil {
				return nil, err
			}
			row = append(row, core.MeanPhi(reps))
		}
		out.Means = append(out.Means, row)
	}
	cols := []column{{"minutes", "minutes", "%8d"}}
	for _, k := range out.Granularities {
		cols = append(cols, column{fmt.Sprint("k", k), fmt.Sprint("1/", k), "%10.5f"})
	}
	out.table = newTable(figure, fmt.Sprintf("mean systematic phi vs elapsed time, %s target", target), cols...)
	for mi, min := range out.Minutes {
		row := []cell{integer(min)}
		for ki := range out.Granularities {
			row = append(row, float(out.Means[ki][mi]))
		}
		out.addRow(row...)
	}
	return out, nil
}

// Figure10 computes the packet-size elapsed-interval series.
func Figure10(tr *trace.Trace) (*ElapsedFigureResult, error) {
	return elapsedFigure(tr, core.TargetSize, "figure10", 10001)
}

// Figure11 computes the interarrival elapsed-interval series.
func Figure11(tr *trace.Trace) (*ElapsedFigureResult, error) {
	return elapsedFigure(tr, core.TargetInterarrival, "figure11", 11001)
}
