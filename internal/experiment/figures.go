package experiment

import (
	"fmt"
	"time"

	"netsample/internal/bins"
	"netsample/internal/core"
	"netsample/internal/dist"
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

// Figure1 reproduces the T1 backbone's SNMP-vs-NNStat discrepancy:
// offered load grows month over month against a fixed statistics
// processor; from month samplingMonth on the 1-in-50 deployment restores
// agreement. It simulates `months` months of growing load through a T1
// node, each month a short trace at that month's load level;
// capacityPPS is the fixed statistics-processor capacity.
func Figure1(months int, samplingMonth int, capacityPPS float64) (Result, error) {
	out := newTable("figure1", "T1 packet totals: SNMP vs NNStat discrepancy under growing load",
		column{"month", "month", "%-10s"}, column{"snmp", "snmp", "%12d"}, column{"nnstat", "nnstat", "%12d"},
		column{"shortfall_pct", "shortfall", "%9.1f%%"}, column{"sampling", "sampling", "%9s"})
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
		sampleK, mark := 0, ""
		if m >= samplingMonth {
			sampleK, mark = 50, "1-in-50"
		}
		node := nsfnet.NewT1Node(capacityPPS, 32, sampleK)
		node.ProcessTrace(tr)
		// SNMP is the exact in-path count, NNStat the categorized
		// (scaled when sampling) one.
		snmp, nnstat := node.SNMP.InPackets, node.CategorizedPackets()
		short := 0.0
		if snmp > 0 {
			short = 1 - float64(nnstat)/float64(snmp)
		}
		out.addRow(str(fmt.Sprintf("month-%02d", m+1)), integer(snmp), integer(nnstat), float(100*short), str(mark))
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

// Figure3 plots every disparity metric against exponentially increasing
// sampling granularity for systematic sampling of the packet-size
// target over a 2048-second interval of the given parent trace.
func Figure3(tr *trace.Trace) (Result, error) {
	win := window(tr, 2048)
	ev, err := newEvaluator(win, core.TargetSize)
	if err != nil {
		return nil, err
	}
	out := newTable("figure3", "disparity metrics vs sampling granularity (2048 s interval)",
		granularity, column{"n", "n", "%9d"}, column{"chi2", "chi2", "%12.2f"},
		column{"one_minus_sig", "1-sig", "%8.4f"}, column{"cost", "cost", "%12.0f"},
		column{"rcost", "rcost", "%12.2f"}, column{"x2", "X2", "%10.6f"},
		column{name: "k"}, // the mean normalized deviation, exported only
		column{"phi", "phi", "%10.6f"})
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
		out.addRow(integer(k), integer(sc.SampleSize()), float(rep.ChiSquare), float(1-rep.Significance),
			float(rep.Cost), float(rep.RelativeCost), float(rep.PaxsonX2), float(rep.AvgNormDev), float(rep.Phi))
	}
	return out, nil
}

// --- Figures 4 and 5: histograms under sampling ---------------------------------

// histogramFigure computes Figure 4 or 5: a target's binned proportions
// at several systematic sampling granularities over a 1024 s interval,
// with φ scores.
func histogramFigure(tr *trace.Trace, target core.Target, figure string) (Result, error) {
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
	pop := ev.PopulationProportions()
	grans := []int{4, 64, 256, 2048, 16384}
	cols := []column{{"bin", "bin", "%-16s"}, {"population", "population", "%10.4f"}}
	for _, k := range grans {
		cols = append(cols, column{fmt.Sprint("k", k), fmt.Sprintf("%7s=%-5d", "1/f", k), "%13.4f"})
	}
	out := newTable(figure, fmt.Sprintf("%s distribution at five systematic sampling granularities (1024 s)", target), cols...)
	// props[g] holds granularity g's binned proportions.
	props := make([][]float64, len(grans))
	phis := make([]float64, len(grans))
	sc := ev.NewScorer()
	for g, k := range grans {
		sc.Reset()
		if err := (core.SystematicCount{K: k}).SelectEach(win, nil, sc.Visit); err != nil {
			return nil, err
		}
		counts := sc.Counts()
		var n float64
		for _, c := range counts {
			n += c
		}
		props[g] = make([]float64, len(counts))
		for i, c := range counts {
			props[g][i] = c / n
		}
		rep, err := sc.Report()
		if err != nil {
			return nil, err
		}
		phis[g] = rep.Phi
	}
	for b := range scheme.NumBins() {
		row := []cell{str(scheme.Label(b)), float(pop[b])}
		for g := range grans {
			row = append(row, float(props[g][b]))
		}
		out.addRow(row...)
	}
	// The φ row has no population share and prints one more digit.
	row := []cell{str("phi"), str("0")}
	for _, phi := range phis {
		row = append(row, cell{kind: 'f', f: phi, prec: 5})
	}
	out.addRow(row...)
	return out, nil
}

// Figure4 reproduces the packet-size histograms under sampling.
func Figure4(tr *trace.Trace) (Result, error) {
	return histogramFigure(tr, core.TargetSize, "figure4")
}

// Figure5 reproduces the interarrival histograms under sampling.
func Figure5(tr *trace.Trace) (Result, error) {
	return histogramFigure(tr, core.TargetInterarrival, "figure5")
}

// --- Figures 6 and 7: boxplots and means of systematic φ -------------------------

// figure6Grans are Figures 6 and 7's granularities.
var figure6Grans = powerOfTwoGrans(2, 15)

// figure6Boxes computes the replication boxplot of systematic
// packet-size φ at each of figure6Grans over a 1024 s interval, and
// each one's replication count: replications vary the systematic start
// offset, as the paper does.
func figure6Boxes(tr *trace.Trace) ([]stats.Boxplot, []int, error) {
	win := window(tr, 1024)
	ev, err := newEvaluator(win, core.TargetSize)
	if err != nil {
		return nil, nil, err
	}
	r := dist.NewRNG(6001)
	boxes := make([]stats.Boxplot, len(figure6Grans))
	counts := make([]int, len(figure6Grans))
	for i, k := range figure6Grans {
		counts[i] = min(k, 20)
		reps, err := core.SystematicOffsets(ev, k, counts[i], r)
		if err != nil {
			return nil, nil, err
		}
		if boxes[i], err = stats.NewBoxplot(core.PhiValues(reps)); err != nil {
			return nil, nil, err
		}
	}
	return boxes, counts, nil
}

// Figure6 holds φ-score boxplots for systematic packet-size sampling as
// the sampling fraction decreases (1024 s interval).
func Figure6(tr *trace.Trace) (Result, error) {
	boxes, counts, err := figure6Boxes(tr)
	if err != nil {
		return nil, err
	}
	out := newTable("figure6", "ranges of systematic phi scores, packet size, vs sampling fraction (1024 s)",
		granularity, column{"replications", "reps", "%5d"}, column{"low", "loWhisk", "%10.5f"},
		column{"q1", "q1", "%10.5f"}, column{"median", "median", "%10.5f"}, column{"q3", "q3", "%10.5f"},
		column{"high", "hiWhisk", "%10.5f"}, column{"outliers", "outliers", "%9d"})
	for i, box := range boxes {
		out.addRow(integer(figure6Grans[i]), integer(counts[i]), float(box.LowWhisker), float(box.Q1), float(box.Median),
			float(box.Q3), float(box.HighWhisker), integer(len(box.Outliers)))
	}
	return out, nil
}

// Figure7 computes the mean systematic φ at each granularity: the means
// of Figure 6's boxplots.
func Figure7(tr *trace.Trace) (Result, error) {
	boxes, _, err := figure6Boxes(tr)
	if err != nil {
		return nil, err
	}
	out := newTable("figure7", "means of systematic phi scores, packet size, vs sampling fraction (1024 s)",
		granularity, column{"mean_phi", "mean-phi", "%10.5f"})
	for i, box := range boxes {
		out.addRow(integer(figure6Grans[i]), float(box.Mean))
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
// across sampling fractions for one target (Figures 8 and 9). Beside
// its table it keeps the figure id and the per-method series, which
// the paper-suite benchmark reads.
type MethodsFigureResult struct {
	*table
	Figure string
	Series []MethodSeries
}

// methodsFigure runs the five-method comparison.
func methodsFigure(tr *trace.Trace, target core.Target, figure string, seed uint64) (Result, error) {
	win := window(tr, 1024)
	ev, err := newEvaluator(win, target)
	if err != nil {
		return nil, err
	}
	r := dist.NewRNG(seed)
	grans := powerOfTwoGrans(1, 15)
	out := &MethodsFigureResult{Figure: figure}
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
		for _, k := range grans {
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
	for i, k := range grans {
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
func Figure8(tr *trace.Trace) (Result, error) {
	return methodsFigure(tr, core.TargetSize, "figure8", 8001)
}

// Figure9 compares the methods on the interarrival target.
func Figure9(tr *trace.Trace) (Result, error) {
	return methodsFigure(tr, core.TargetInterarrival, "figure9", 9001)
}

// --- Figures 10 and 11: elapsed-interval effect -------------------------------------

// elapsedFigure computes one of the two elapsed-interval figures: mean
// systematic φ as a function of the elapsed sampling interval at
// several fractions.
func elapsedFigure(tr *trace.Trace, target core.Target, figure string, seed uint64) (Result, error) {
	minutes := []int{1, 2, 4, 8, 16, 32, 60}
	grans := []int{16, 256, 4096}
	r := dist.NewRNG(seed)
	means := make([][]float64, len(grans)) // [granularity][minute]
	for ki, k := range grans {
		for _, m := range minutes {
			win := window(tr, int64(m)*60)
			ev, err := newEvaluator(win, target)
			if err != nil {
				return nil, err
			}
			reps, err := core.SystematicOffsets(ev, k, min(k, 5), r)
			if err != nil {
				return nil, err
			}
			means[ki] = append(means[ki], core.MeanPhi(reps))
		}
	}
	cols := []column{{"minutes", "minutes", "%8d"}}
	for _, k := range grans {
		cols = append(cols, column{fmt.Sprint("k", k), fmt.Sprint("1/", k), "%10.5f"})
	}
	out := newTable(figure, fmt.Sprintf("mean systematic phi vs elapsed time, %s target", target), cols...)
	for mi, m := range minutes {
		row := []cell{integer(m)}
		for ki := range grans {
			row = append(row, float(means[ki][mi]))
		}
		out.addRow(row...)
	}
	return out, nil
}

// Figure10 computes the packet-size elapsed-interval series.
func Figure10(tr *trace.Trace) (Result, error) {
	return elapsedFigure(tr, core.TargetSize, "figure10", 10001)
}

// Figure11 computes the interarrival elapsed-interval series.
func Figure11(tr *trace.Trace) (Result, error) {
	return elapsedFigure(tr, core.TargetInterarrival, "figure11", 11001)
}
