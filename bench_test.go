// Benchmarks regenerating every table and figure of the paper (one
// Benchmark per artifact, reporting key numbers as benchmark metrics),
// the DESIGN.md §6 ablation studies, and micro-benchmarks of the hot
// paths (sampling, scoring, trace codec, generation).
//
// Run everything with:
//
//	go test -bench=. -benchmem
package netsample

import (
	"bytes"
	"encoding/binary"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"netsample/internal/bins"
	"netsample/internal/core"
	"netsample/internal/dist"
	"netsample/internal/experiment"
	"netsample/internal/flows"
	"netsample/internal/metrics"
	"netsample/internal/nnstat"
	"netsample/internal/online"
	"netsample/internal/pipeline"
	"netsample/internal/stats"
	"netsample/internal/store"
	"netsample/internal/trace"
	"netsample/internal/traffgen"
)

// benchHour returns the shared calibrated hour population, generating it
// once per process.
func benchHour(b *testing.B) *trace.Trace {
	b.Helper()
	tr, err := traffgen.Hour()
	if err != nil {
		b.Fatal(err)
	}
	return tr
}

var (
	benchSmallOnce sync.Once
	benchSmallTr   *trace.Trace
	benchSmallErr  error
)

// benchSmall returns a shared 2-minute population for the heavier
// parameter sweeps.
func benchSmall(b *testing.B) *trace.Trace {
	b.Helper()
	benchSmallOnce.Do(func() {
		benchSmallTr, benchSmallErr = traffgen.Generate(traffgen.SmallTrace(777))
	})
	if benchSmallErr != nil {
		b.Fatal(benchSmallErr)
	}
	return benchSmallTr
}

// --- one benchmark per table/figure --------------------------------------------

func BenchmarkTable1Objects(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiment.Table1()
		if len(r.Objects) != 7 {
			b.Fatal("wrong object count")
		}
	}
}

func BenchmarkTable2PerSecond(b *testing.B) {
	tr := benchHour(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiment.Table2(tr)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(r.Rows[0].Mean, "pps-mean")
			b.ReportMetric(r.Rows[0].StdDev, "pps-stddev")
		}
	}
}

func BenchmarkTable3Population(b *testing.B) {
	tr := benchHour(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiment.Table3(core.NewProfile(tr))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(r.Size.Mean, "size-mean")
			b.ReportMetric(r.Interarrival.Mean, "iat-mean-us")
		}
	}
}

func BenchmarkFigure1Discrepancy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiment.Figure1(30, 20, 800)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			pre := r.Points[19]
			b.ReportMetric(100*(1-float64(pre.NNStat)/float64(pre.SNMP)), "peak-shortfall-%")
		}
	}
}

func BenchmarkFigure3Metrics(b *testing.B) {
	tr := benchHour(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiment.Figure3(tr)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(r.Points[len(r.Points)-1].Report.Phi, "phi-at-32768")
		}
	}
}

func BenchmarkFigure4SizeHist(b *testing.B) {
	tr := benchHour(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Figure4(tr); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure5IatHist(b *testing.B) {
	tr := benchHour(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Figure5(tr); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure6Boxplots(b *testing.B) {
	tr := benchHour(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiment.Figure6(tr)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			last := r.Rows[len(r.Rows)-1].Box
			b.ReportMetric(last.Median, "phi-median-at-32768")
		}
	}
}

func BenchmarkFigure7Means(b *testing.B) {
	tr := benchHour(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Figure7(tr); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure8Methods(b *testing.B) {
	tr := benchHour(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiment.Figure8(tr)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportClassGap(b, r)
		}
	}
}

func BenchmarkFigure9MethodsIat(b *testing.B) {
	tr := benchHour(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiment.Figure9(tr)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportClassGap(b, r)
		}
	}
}

// reportClassGap reports mean φ per trigger class over the coarse half
// of the grid — the paper's packet-vs-timer comparison.
func reportClassGap(b *testing.B, r *experiment.MethodsFigureResult) {
	var pSum, tSum float64
	var pN, tN int
	half := len(r.Granularities) / 2
	for _, s := range r.Series {
		for _, v := range s.Means[half:] {
			if strings.HasSuffix(s.Method, "/timer") {
				tSum += v
				tN++
			} else {
				pSum += v
				pN++
			}
		}
	}
	b.ReportMetric(pSum/float64(pN), "phi-packet-class")
	b.ReportMetric(tSum/float64(tN), "phi-timer-class")
}

func BenchmarkFigure10Elapsed(b *testing.B) {
	tr := benchHour(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiment.Figure10(tr)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			row := r.Means[1] // granularity 256
			b.ReportMetric(row[0], "phi-1min")
			b.ReportMetric(row[len(row)-1], "phi-60min")
		}
	}
}

func BenchmarkFigure11ElapsedIat(b *testing.B) {
	tr := benchHour(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Figure11(tr); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSampleSize(b *testing.B) {
	tr := benchHour(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiment.SampleSizes(core.NewProfile(tr))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(r.Rows[0].N), "n-size-5pct")
			b.ReportMetric(float64(r.Rows[2].N), "n-iat-5pct")
		}
	}
}

func BenchmarkChiSquareReplications(b *testing.B) {
	tr := benchHour(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiment.ChiSquareAcceptance(tr, core.TargetSize)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(r.Rejected), "rejected-of-50")
		}
	}
}

// --- ablation benches (DESIGN.md §6) --------------------------------------------

// BenchmarkAblationBins compares the paper's hand-chosen size bins to
// equal-width and quantile binning: does the method ranking change?
func BenchmarkAblationBins(b *testing.B) {
	tr := benchSmall(b)
	sizes := tr.Sizes()
	quantEdges, err := quantileInteriorEdges(sizes, 5)
	if err != nil {
		b.Fatal(err)
	}
	schemes := map[string]bins.Scheme{}
	paper := bins.PacketSize()
	schemes["paper"] = paper
	eq, err := bins.NewEdged("equal-width", []float64{300, 600, 900, 1200})
	if err != nil {
		b.Fatal(err)
	}
	schemes["equal-width"] = eq
	qs, err := bins.NewEdged("quantile", quantEdges)
	if err != nil {
		b.Fatal(err)
	}
	schemes["quantile"] = qs

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for name, scheme := range schemes {
			ev, err := core.NewEvaluator(tr, core.TargetSize, scheme)
			if err != nil {
				b.Fatal(err)
			}
			idx, err := core.SystematicCount{K: 256}.Select(tr, nil)
			if err != nil {
				b.Fatal(err)
			}
			rep, err := ev.Score(idx)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.ReportMetric(rep.Phi, "phi-"+name)
			}
		}
	}
}

// quantileInteriorEdges derives interior bin edges at the k-quantiles of
// xs, collapsing duplicates (packet sizes are heavily tied at 40/552).
func quantileInteriorEdges(xs []float64, nbins int) ([]float64, error) {
	var edges []float64
	for i := 1; i < nbins; i++ {
		q, err := stats.Quantile(xs, float64(i)/float64(nbins))
		if err != nil {
			return nil, err
		}
		if len(edges) == 0 || q > edges[len(edges)-1] {
			edges = append(edges, q)
		}
	}
	return edges, nil
}

// BenchmarkAblationTimerEdge quantifies the paper's "seemingly
// inconsequential" approximation: selecting the next arrival after a
// tick vs the most recent arrival before it.
func BenchmarkAblationTimerEdge(b *testing.B) {
	tr := benchSmall(b)
	ev, err := core.NewEvaluator(tr, core.TargetInterarrival, bins.Interarrival())
	if err != nil {
		b.Fatal(err)
	}
	period, err := core.PeriodForGranularity(tr, 64)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, prev := range []bool{false, true} {
			s := core.SystematicTimer{PeriodUS: period, SelectPrevious: prev}
			idx, err := s.Select(tr, nil)
			if err != nil {
				b.Fatal(err)
			}
			rep, err := ev.Score(idx)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				name := "phi-next-arrival"
				if prev {
					name = "phi-prev-arrival"
				}
				b.ReportMetric(rep.Phi, name)
			}
		}
	}
}

// BenchmarkAblationReplications measures how the spread of φ estimates
// shrinks as the replication count grows (the paper used 5).
func BenchmarkAblationReplications(b *testing.B) {
	tr := benchSmall(b)
	ev, err := core.NewEvaluator(tr, core.TargetSize, bins.PacketSize())
	if err != nil {
		b.Fatal(err)
	}
	r := dist.NewRNG(4242)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, reps := range []int{2, 5, 20} {
			rs, err := core.Replicate(ev, core.StratifiedCount{K: 512}, reps, r)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				phis := core.PhiValues(rs)
				lo, hi := phis[0], phis[0]
				for _, v := range phis {
					if v < lo {
						lo = v
					}
					if v > hi {
						hi = v
					}
				}
				b.ReportMetric(hi-lo, "phi-range-"+strconv.Itoa(reps))
			}
		}
	}
}

// BenchmarkAblationStratifiedJitter contrasts stratified (random within
// bucket) with systematic (fixed position within bucket) at the same
// fraction — the §5 theory on populations with patterns.
func BenchmarkAblationStratifiedJitter(b *testing.B) {
	tr := benchSmall(b)
	ev, err := core.NewEvaluator(tr, core.TargetSize, bins.PacketSize())
	if err != nil {
		b.Fatal(err)
	}
	r := dist.NewRNG(17)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sysReps, err := core.SystematicOffsets(ev, 512, 5, r)
		if err != nil {
			b.Fatal(err)
		}
		strReps, err := core.Replicate(ev, core.StratifiedCount{K: 512}, 5, r)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(core.MeanPhi(sysReps), "phi-fixed")
			b.ReportMetric(core.MeanPhi(strReps), "phi-jittered")
		}
	}
}

// BenchmarkAblationTrend compares systematic vs stratified sampling on a
// stationary population and one with a strong linear load trend — the
// Section 5 prediction that a trend favors stratified random sampling.
func BenchmarkAblationTrend(b *testing.B) {
	flat := traffgen.SmallTrace(31)
	trended := traffgen.SmallTrace(31)
	trended.Envelope.TrendPerHour = 1.5
	trFlat, err := traffgen.Generate(flat)
	if err != nil {
		b.Fatal(err)
	}
	trTrend, err := traffgen.Generate(trended)
	if err != nil {
		b.Fatal(err)
	}
	r := dist.NewRNG(5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for name, tr := range map[string]*trace.Trace{"flat": trFlat, "trend": trTrend} {
			ev, err := core.NewEvaluator(tr, core.TargetInterarrival, bins.Interarrival())
			if err != nil {
				b.Fatal(err)
			}
			sys, err := core.SystematicOffsets(ev, 128, 5, r)
			if err != nil {
				b.Fatal(err)
			}
			str, err := core.Replicate(ev, core.StratifiedCount{K: 128}, 5, r)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.ReportMetric(core.MeanPhi(sys), "phi-sys-"+name)
				b.ReportMetric(core.MeanPhi(str), "phi-str-"+name)
			}
		}
	}
}

// --- micro-benchmarks -------------------------------------------------------------

func BenchmarkGenerateSmallTrace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tr, err := traffgen.Generate(traffgen.SmallTrace(uint64(i)))
		if err != nil {
			b.Fatal(err)
		}
		if tr.Len() == 0 {
			b.Fatal("empty trace")
		}
	}
}

// BenchmarkGenerateHour and BenchmarkGenerateScenarioDDoS are the two
// traces every nsbench workload's setup synthesizes (the parent
// population and the 20-minute SYN-flood preset); B/op against
// 24 B × packets is the staging overhead.
func BenchmarkGenerateHour(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr, err := traffgen.Generate(traffgen.NSFNETHour())
		if err != nil {
			b.Fatal(err)
		}
		if tr.Len() == 0 {
			b.Fatal("empty trace")
		}
	}
}

func BenchmarkGenerateScenarioDDoS(b *testing.B) {
	s, err := traffgen.PresetScenario("ddos", 1993, 20*time.Minute)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr, err := traffgen.GenerateScenario(s)
		if err != nil {
			b.Fatal(err)
		}
		if tr.Len() == 0 {
			b.Fatal("empty trace")
		}
	}
}

func BenchmarkSystematicSelect(b *testing.B) {
	tr := benchSmall(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (core.SystematicCount{K: 50}).Select(tr, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStratifiedSelect(b *testing.B) {
	tr := benchSmall(b)
	r := dist.NewRNG(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (core.StratifiedCount{K: 50}).Select(tr, r); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimpleRandomSelect(b *testing.B) {
	tr := benchSmall(b)
	r := dist.NewRNG(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (core.SimpleRandom{K: 50}).Select(tr, r); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTimerSelect(b *testing.B) {
	tr := benchSmall(b)
	s, err := core.NewSystematicTimer(tr, 50, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Select(tr, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEvaluatorScore(b *testing.B) {
	tr := benchSmall(b)
	ev, err := core.NewEvaluator(tr, core.TargetSize, bins.PacketSize())
	if err != nil {
		b.Fatal(err)
	}
	idx, err := core.SystematicCount{K: 50}.Select(tr, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ev.Score(idx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFusedReplication measures the fully fused path: streaming
// systematic selection feeding a worker-local Scorer, the loop the
// figure sweeps run thousands of times. Steady-state this is 0 allocs/op
// (pinned by TestReplicationScoringZeroAllocs).
func BenchmarkFusedReplication(b *testing.B) {
	tr := benchSmall(b)
	ev, err := core.NewEvaluator(tr, core.TargetSize, bins.PacketSize())
	if err != nil {
		b.Fatal(err)
	}
	sc := ev.NewScorer()
	visit := sc.Visit
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc.Reset()
		if err := (core.SystematicCount{K: 50, Offset: i % 50}).SelectEach(tr, nil, visit); err != nil {
			b.Fatal(err)
		}
		if _, err := sc.Report(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPhiMetric(b *testing.B) {
	o := []float64{120, 330, 550}
	e := []float64{130, 320, 550}
	for i := 0; i < b.N; i++ {
		if _, err := metrics.Phi(o, e); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTraceCodec(b *testing.B) {
	tr := benchSmall(b)
	var buf bytes.Buffer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := trace.Write(&buf, tr); err != nil {
			b.Fatal(err)
		}
		if _, err := trace.Read(&buf); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(24 * tr.Len()))
}

// --- extension artifact benches ------------------------------------------------

func BenchmarkExtPorts(b *testing.B) {
	tr := benchHour(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiment.ExtPorts(tr)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(r.Means[len(r.Means)-1], "phi-at-8192")
		}
	}
}

func BenchmarkExtMatrix(b *testing.B) {
	tr := benchHour(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiment.ExtMatrix(tr)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(r.Cells), "matrix-cells")
			b.ReportMetric(r.Means[len(r.Means)-1], "phi-at-8192")
		}
	}
}

func BenchmarkSec5Theory(b *testing.B) {
	tr := benchHour(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiment.Theory(tr, core.TargetSize)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(r.Rows[2].Ratio, "variance-ratio-k50")
		}
	}
}

func BenchmarkExtAdaptive(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiment.Adaptive()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, row := range r.Rows {
				if row.Config == "adaptive" {
					b.ReportMetric(100*row.RelError, "adaptive-error-%")
					b.ReportMetric(row.MeanK, "adaptive-mean-k")
				}
			}
		}
	}
}

// --- additional micro-benchmarks --------------------------------------------------

func BenchmarkPcapCodec(b *testing.B) {
	tr := benchSmall(b)
	var buf bytes.Buffer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := trace.WritePcap(&buf, tr); err != nil {
			b.Fatal(err)
		}
		if _, err := trace.ReadPcap(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReservoirAdd(b *testing.B) {
	r, err := online.NewReservoir(1024, dist.NewRNG(1))
	if err != nil {
		b.Fatal(err)
	}
	p := trace.Packet{Size: 552}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Add(p)
	}
}

func BenchmarkStreamingSystematicOffer(b *testing.B) {
	s, err := online.NewSystematic(50, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Offer(int64(i))
	}
}

func BenchmarkEstimateMean(b *testing.B) {
	tr := benchSmall(b)
	idx, err := core.SystematicCount{K: 50}.Select(tr, nil)
	if err != nil {
		b.Fatal(err)
	}
	obs := core.Observations(tr, core.TargetSize, idx)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.EstimateMean(obs, tr.Len(), 0.95); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExtArtsHist(b *testing.B) {
	tr := benchHour(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiment.ArtsHist(tr)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(r.Phis[1], "phi-at-50")
		}
	}
}

func BenchmarkExtFlows(b *testing.B) {
	tr := benchHour(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiment.FlowBias(tr)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(r.DetectedFrac[2], "detected-frac-at-50")
			b.ReportMetric(r.MeanPktsScale[2], "size-bias-at-50")
		}
	}
}

func BenchmarkExtHeavyHitters(b *testing.B) {
	tr := benchHour(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiment.HeavyHitters(tr)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(r.Overlap[2], "top10-overlap-at-50")
		}
	}
}

func BenchmarkFlowTableAdd(b *testing.B) {
	tr := benchSmall(b)
	tab, err := flows.NewTable(2_000_000)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.Add(tr.Packets[i%tr.Len()])
	}
}

// BenchmarkFlowTableChurn is the flood shape BenchmarkFlowTableAdd never
// reaches: every packet opens a new flow, with a window cut
// (CountFlows(Flush())) every 4096 inserts. One untimed window sizes
// the slab and the key index first, so the timed loop is the warm cost.
func BenchmarkFlowTableChurn(b *testing.B) {
	tab, err := flows.NewTable(2_000_000)
	if err != nil {
		b.Fatal(err)
	}
	const perWindow = 4096
	p := trace.Packet{Size: 40, DstPort: 80}
	var flowsSeen uint64
	churn := func(i int) {
		p.Time = int64(i) * 10
		binary.LittleEndian.PutUint32(p.Src[:], uint32(i))
		tab.Add(p)
		if i%perWindow == perWindow-1 {
			flowsSeen += flows.CountFlows(tab.Flush()).Flows
		}
	}
	for i := 0; i < perWindow; i++ {
		churn(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		churn(perWindow + i)
	}
	if want := uint64(perWindow + b.N - b.N%perWindow); flowsSeen != want {
		b.Fatalf("cut %d flows, want %d", flowsSeen, want)
	}
}

// BenchmarkTopKEvict is the sketch's miss path: at capacity 128 (the
// pipeline default) every key is unseen, so every AddBytes evicts the
// minimum counter and rewrites its slot.
func BenchmarkTopKEvict(b *testing.B) {
	tk, err := nnstat.NewTopK(pipeline.DefaultTopKCapacity)
	if err != nil {
		b.Fatal(err)
	}
	var key [13]byte
	miss := func(i int) {
		binary.LittleEndian.PutUint32(key[:], uint32(i))
		tk.AddBytes(key[:], 1)
	}
	for i := 0; i < pipeline.DefaultTopKCapacity; i++ {
		miss(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		miss(pipeline.DefaultTopKCapacity + i)
	}
	if want := uint64(pipeline.DefaultTopKCapacity + b.N); tk.Total() != want {
		b.Fatalf("total %d, want %d", tk.Total(), want)
	}
}

func BenchmarkTopKAdd(b *testing.B) {
	tk, err := nnstat.NewTopK(256)
	if err != nil {
		b.Fatal(err)
	}
	keys := make([]string, 1024)
	r := dist.NewRNG(1)
	for i := range keys {
		keys[i] = strconv.Itoa(r.IntN(10000))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tk.Add(keys[i%len(keys)], 1)
	}
}

// BenchmarkAblationClock quantifies the capture-clock effect the paper
// inherits from its 400 µs instrumentation: the same traffic quantized
// at finer and coarser clocks, scored on the interarrival target at a
// fixed fraction. Clocks coarser than ~1 ms leave the paper's
// 800-1199 us bin structurally empty (the evaluator rejects them), so
// the sweep stays inside the bins' validity range - itself the
// ablation's first finding.
func BenchmarkAblationClock(b *testing.B) {
	clocks := []int64{1, 100, 400}
	traces := make(map[int64]*trace.Trace)
	for _, c := range clocks {
		cfg := traffgen.SmallTrace(4004)
		cfg.ClockUS = c
		tr, err := traffgen.Generate(cfg)
		if err != nil {
			b.Fatal(err)
		}
		traces[c] = tr
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range clocks {
			tr := traces[c]
			ev, err := core.NewEvaluator(tr, core.TargetInterarrival, bins.Interarrival())
			if err != nil {
				b.Fatal(err)
			}
			reps, err := core.SystematicOffsets(ev, 64, 5, dist.NewRNG(1))
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.ReportMetric(core.MeanPhi(reps), "phi-clock-"+strconv.FormatInt(c, 10)+"us")
			}
		}
	}
}

// BenchmarkSelectByGranularity measures selection throughput per method
// across granularities, as sub-benchmarks.
func BenchmarkSelectByGranularity(b *testing.B) {
	tr := benchSmall(b)
	for _, k := range []int{10, 100, 1000} {
		k := k
		b.Run("systematic/k="+strconv.Itoa(k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := (core.SystematicCount{K: k}).Select(tr, nil); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(tr.Len()))
		})
		b.Run("stratified/k="+strconv.Itoa(k), func(b *testing.B) {
			r := dist.NewRNG(uint64(k))
			for i := 0; i < b.N; i++ {
				if _, err := (core.StratifiedCount{K: k}).Select(tr, r); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(tr.Len()))
		})
		b.Run("random/k="+strconv.Itoa(k), func(b *testing.B) {
			r := dist.NewRNG(uint64(k))
			for i := 0; i < b.N; i++ {
				if _, err := (core.SimpleRandom{K: k}).Select(tr, r); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(tr.Len()))
		})
	}
}

// writeBenchTrace serializes tr to a temp NSTR file for the mmap
// benchmarks and returns the path.
func writeBenchTrace(b *testing.B, tr *trace.Trace) string {
	b.Helper()
	path := filepath.Join(b.TempDir(), "bench.nstr")
	var buf bytes.Buffer
	if err := trace.Write(&buf, tr); err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		b.Fatal(err)
	}
	return path
}

// BenchmarkDecodeBatch measures the fused raw ingest kernel — decode +
// shard hash + gap stamp over a whole window of NSTR records in one
// pass. One op = one record.
func BenchmarkDecodeBatch(b *testing.B) {
	tr := benchSmall(b)
	var buf bytes.Buffer
	if err := trace.Write(&buf, tr); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()[trace.HeaderLen:]
	nrec := len(raw) / trace.RecordLen
	const batch = 256
	pkts := make([]trace.Packet, batch)
	shards := make([]uint8, batch)
	gaps := make([]int64, batch)
	b.SetBytes(trace.RecordLen)
	b.ReportAllocs()
	b.ResetTimer()
	pos, prev := 0, int64(0)
	for done := 0; done < b.N; {
		n := batch
		if left := nrec - pos; left < n {
			if left == 0 {
				pos, prev = 0, 0
				continue
			}
			n = left
		}
		k := pipeline.DecodeBatch(pkts[:n], shards[:n], gaps[:n],
			raw[pos*trace.RecordLen:(pos+n)*trace.RecordLen], prev, 4)
		prev = pkts[k-1].Time
		pos += k
		done += k
	}
}

// BenchmarkMapReaderThroughput measures the zero-copy reader end to
// end: raw windows handed out of the mapped region and decoded from the
// view in one DecodeRecords pass. One op = one record.
func BenchmarkMapReaderThroughput(b *testing.B) {
	tr := benchSmall(b)
	path := writeBenchTrace(b, tr)
	mr, err := trace.OpenMap(path)
	if err != nil {
		b.Fatal(err)
	}
	defer mr.Close()
	dst := make([]trace.Packet, 512)
	b.SetBytes(trace.RecordLen)
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; {
		n, err := mr.NextBatch(dst)
		if err == io.EOF {
			mr.Rewind()
			continue
		}
		if err != nil {
			b.Fatal(err)
		}
		done += n
	}
}

// mapLoop cycles an mmap'd trace, yielding exactly n records — the
// zero-copy analogue of an endless capture stream. Its raw windows
// alias the mapping, which stays valid until Close, so it satisfies
// pipeline.RawBatchSource even across Rewind laps.
type mapLoop struct {
	mr  *trace.MapReader
	n   int
	pos int
}

func (m *mapLoop) Next() (trace.Packet, error) {
	if m.pos >= m.n {
		return trace.Packet{}, io.EOF
	}
	p, err := m.mr.Next()
	if err == io.EOF {
		m.mr.Rewind()
		p, err = m.mr.Next()
	}
	if err != nil {
		return trace.Packet{}, err
	}
	m.pos++
	return p, nil
}

func (m *mapLoop) NextRawBatch(max int) ([]byte, int, error) {
	if m.pos >= m.n {
		return nil, 0, io.EOF
	}
	if left := m.n - m.pos; left < max {
		max = left
	}
	raw, k, err := m.mr.NextRawBatch(max)
	if err == io.EOF {
		m.mr.Rewind()
		raw, k, err = m.mr.NextRawBatch(max)
	}
	if err != nil {
		return nil, 0, err
	}
	m.pos += k
	return raw, k, nil
}

// BenchmarkPipelineThroughput measures the streaming pipeline's
// end-to-end packet rate (ingest → shard → sample → aggregate) by shard
// count, with one benchmark op = one packet. The pipeline is fed
// through the zero-copy raw path: an mmap'd trace cycled by mapLoop,
// decoded inside the parallel ingest workers. The reader goroutine reads
// only timestamps, which it offers the one sampler (the run is
// un-windowed); allocs/op near zero is the hot-path guarantee
// (pinned exactly by TestMapReaderHotPathAllocs).
func BenchmarkPipelineThroughput(b *testing.B) {
	tr := benchSmall(b)
	path := writeBenchTrace(b, tr)
	for _, shards := range []int{1, 2, 4} {
		b.Run("shards="+strconv.Itoa(shards), func(b *testing.B) {
			p, err := pipeline.New(pipeline.Config{
				Shards: shards,
				NewSampler: func(int) (online.Sampler, error) {
					return online.NewSystematic(50, 0)
				},
				// Flows from the cycled trace never expire mid-run, so the
				// flow table reaches steady state after the first lap.
				FlowTimeoutUS: 1 << 60,
			})
			if err != nil {
				b.Fatal(err)
			}
			mr, err := trace.OpenMap(path)
			if err != nil {
				b.Fatal(err)
			}
			defer mr.Close()
			src := &mapLoop{mr: mr, n: b.N}
			b.ReportAllocs()
			b.ResetTimer()
			if err := p.Run(src); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			if sec := b.Elapsed().Seconds(); sec > 0 {
				b.ReportMetric(float64(b.N)/sec, "pkts/s")
			}
			snap, ok := p.Latest()
			if !ok || snap.Processed != uint64(b.N) {
				b.Fatalf("pipeline lost packets: %+v", snap)
			}
		})
	}
}

// BenchmarkStoreAppend measures the durable store's hot append path on
// 56-byte records — one op is one Append, with the group-commit
// fsync cost (one sync per store.DefaultSyncEvery appends) amortized
// into the per-op number, which is how the write path actually runs.
func BenchmarkStoreAppend(b *testing.B) {
	w, err := store.Open(b.TempDir(), store.Options{
		SegmentRecords: 1 << 30,
		SyncWindowUS:   -1,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	payload := make([]byte, metrics.ReportWireSize)
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Append(store.KindSnapshot, int64(i), payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreReplay measures the mmap read path: replay a sealed
// multi-segment store of 56-byte records, one op per record.
func BenchmarkStoreReplay(b *testing.B) {
	dir := b.TempDir()
	w, err := store.Open(dir, store.Options{SegmentRecords: 4096})
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, metrics.ReportWireSize)
	for i := 0; i < b.N; i++ {
		if err := w.Append(store.KindSnapshot, int64(i), payload); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	r, err := store.OpenReader(dir)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	var n int
	err = r.Replay(func(rec store.Record) error {
		if len(rec.Payload) != metrics.ReportWireSize {
			b.Fatalf("record %d payload %d bytes", n, len(rec.Payload))
		}
		n++
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
	if n != b.N {
		b.Fatalf("replayed %d of %d records", n, b.N)
	}
}
