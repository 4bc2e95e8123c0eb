package experiment

import (
	"bytes"
	"strings"
	"testing"

	"netsample/internal/core"
	"netsample/internal/trace"
	"netsample/internal/traffgen"
)

// testTrace returns a fast small parent population for runner tests.
func testTrace(t testing.TB) *trace.Trace {
	t.Helper()
	tr, err := traffgen.Generate(traffgen.SmallTrace(12345))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func render(t *testing.T, r Result) string {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestTable1(t *testing.T) {
	r := Table1()
	if len(r.Objects) != 7 {
		t.Fatalf("objects = %d", len(r.Objects))
	}
	out := render(t, r)
	if !strings.Contains(out, "src-dst-matrix") {
		t.Error("matrix row missing")
	}
	// The T1-only rows must be N/A on T3.
	rowFields := func(name string) []string {
		for _, line := range strings.Split(out, "\n") {
			f := strings.Fields(line)
			if len(f) > 0 && f[0] == name {
				return f
			}
		}
		return nil
	}
	if f := rowFields("length-histogram"); len(f) != 3 || f[1] != "Y" || f[2] != "N/A" {
		t.Errorf("length-histogram row wrong: %v", f)
	}
	if f := rowFields("protocol-distribution"); len(f) != 3 || f[1] != "Y" || f[2] != "Y" {
		t.Errorf("protocol row wrong: %v", f)
	}
}

func TestTable2(t *testing.T) {
	tr := testTrace(t)
	r, err := Table2(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	pps := r.Rows[0]
	if pps.Mean < 300 || pps.Mean > 550 {
		t.Errorf("pps mean = %v", pps.Mean)
	}
	if pps.Min > pps.Q25 || pps.Q25 > pps.Median || pps.Median > pps.Q75 || pps.Q75 > pps.Max {
		t.Errorf("quantiles not ordered: %+v", pps)
	}
	out := render(t, r)
	if !strings.Contains(out, "packet arrivals") {
		t.Error("render missing row name")
	}
	if _, err := Table2(&trace.Trace{}); err == nil {
		t.Error("empty trace accepted")
	}
}

func TestTable3(t *testing.T) {
	tr := testTrace(t)
	r, err := Table3(core.NewProfile(tr))
	if err != nil {
		t.Fatal(err)
	}
	if r.Size.Min != 28 || r.Size.Max != 1500 {
		t.Errorf("size range = [%v, %v]", r.Size.Min, r.Size.Max)
	}
	if r.Interarrival.Mean <= 0 {
		t.Errorf("iat mean = %v", r.Interarrival.Mean)
	}
	if r.TotalPackets != tr.Len() {
		t.Error("total mismatch")
	}
	render(t, r)
	if _, err := Table3(core.NewProfile(&trace.Trace{})); err == nil {
		t.Error("empty trace accepted")
	}
}

func TestFigure1ShowsDiscrepancyAndRecovery(t *testing.T) {
	r, err := Figure1(12, 8, 600)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 12 {
		t.Fatalf("points = %d", len(r.Points))
	}
	shortfall := func(p Figure1Point) float64 {
		return 1 - float64(p.NNStat)/float64(p.SNMP)
	}
	// Early months: processor keeps up.
	if s := shortfall(r.Points[0]); s > 0.02 {
		t.Errorf("month 1 shortfall %v, want ≈0", s)
	}
	// Just before the sampling deployment: visible undercount.
	if s := shortfall(r.Points[7]); s < 0.05 {
		t.Errorf("month 8 shortfall %v, want noticeable", s)
	}
	// After deployment: scaled estimate close to SNMP again.
	last := r.Points[len(r.Points)-1]
	if !last.SamplingOn {
		t.Fatal("sampling not on in final month")
	}
	s := shortfall(last)
	if s > 0.05 && s < -0.05 {
		t.Errorf("post-sampling shortfall %v, want ≈0", s)
	}
	out := render(t, r)
	if !strings.Contains(out, "1-in-50") {
		t.Error("sampling marker missing")
	}
}

func TestFigure3MetricsBehave(t *testing.T) {
	tr := testTrace(t)
	r, err := Figure3(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 15 {
		t.Fatalf("points = %d", len(r.Points))
	}
	// phi must broadly rise as granularity coarsens (compare first vs
	// last point).
	first, last := r.Points[0].Report.Phi, r.Points[len(r.Points)-1].Report.Phi
	if !(last > first) {
		t.Errorf("phi did not grow: %v → %v", first, last)
	}
	// Sample sizes shrink by ~2x per step.
	for i := 1; i < len(r.Points); i++ {
		if r.Points[i].SampleSize >= r.Points[i-1].SampleSize {
			t.Errorf("sample size not shrinking at %d", i)
		}
	}
	render(t, r)
}

func TestFigures4And5(t *testing.T) {
	tr := testTrace(t)
	for _, f := range []func(*trace.Trace) (*HistogramFigureResult, error){Figure4, Figure5} {
		r, err := f(tr)
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Proportions) != len(r.Granularities) {
			t.Fatal("proportions/granularity mismatch")
		}
		for _, props := range r.Proportions {
			var sum float64
			for _, p := range props {
				sum += p
			}
			if sum < 0.999 || sum > 1.001 {
				t.Errorf("%s proportions sum %v", r.ID(), sum)
			}
		}
		if r.Phis[0] > r.Phis[len(r.Phis)-1] == false && r.Phis[len(r.Phis)-1] == 0 {
			t.Errorf("%s phi legend empty", r.ID())
		}
		render(t, r)
	}
}

func TestFigure6And7(t *testing.T) {
	tr := testTrace(t)
	r6, err := Figure6(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(r6.Rows) != 14 { // 2^2..2^15
		t.Fatalf("rows = %d", len(r6.Rows))
	}
	for _, row := range r6.Rows {
		b := row.Box
		if !(b.LowWhisker <= b.Q1 && b.Q1 <= b.Median && b.Median <= b.Q3 && b.Q3 <= b.HighWhisker) {
			t.Errorf("k=%d box not ordered: %+v", row.Granularity, b)
		}
	}
	// Spread (IQR) should broadly grow with granularity: compare the
	// finest and coarsest.
	firstIQR := r6.Rows[0].Box.Q3 - r6.Rows[0].Box.Q1
	lastIQR := r6.Rows[len(r6.Rows)-1].Box.Q3 - r6.Rows[len(r6.Rows)-1].Box.Q1
	if !(lastIQR > firstIQR) {
		t.Errorf("replication spread did not grow: %v → %v", firstIQR, lastIQR)
	}
	render(t, r6)

	r7, err := Figure7(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(r7.Means) != len(r6.Rows) {
		t.Fatal("figure7 length mismatch")
	}
	if !(r7.Means[len(r7.Means)-1] > r7.Means[0]) {
		t.Error("mean phi did not grow with granularity")
	}
	render(t, r7)
}

func TestFigures8And9MethodOrdering(t *testing.T) {
	tr := testTrace(t)
	r8, err := Figure8(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(r8.Series) != 5 {
		t.Fatalf("series = %d", len(r8.Series))
	}
	render(t, r8)

	r9, err := Figure9(tr)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's headline on the interarrival target: timer methods
	// uniformly worse. Compare mean-over-grid per class.
	classMean := func(r *MethodsFigureResult, timer bool) float64 {
		var sum float64
		var n int
		for _, s := range r.Series {
			isTimer := strings.HasSuffix(s.Method, "/timer")
			if isTimer != timer {
				continue
			}
			// Skip the finest granularities where everything is ~0.
			for _, v := range s.Means[3:] {
				sum += v
				n++
			}
		}
		return sum / float64(n)
	}
	pkt, tmr := classMean(r9, false), classMean(r9, true)
	if !(tmr > pkt) {
		t.Errorf("interarrival: timer mean phi %v not worse than packet %v", tmr, pkt)
	}
	render(t, r9)
}

func TestFigures10And11(t *testing.T) {
	tr := testTrace(t) // 2-minute trace: only minutes 1 and 2 materialize
	r, err := elapsedFigure(tr, core.TargetSize, "figure10", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Means) != len(r.Granularities) {
		t.Fatal("shape mismatch")
	}
	render(t, r)
}

func TestSampleSizes(t *testing.T) {
	tr := testTrace(t)
	r, err := SampleSizes(core.NewProfile(tr))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// r=1% needs 25x the samples of r=5%.
	ratio := float64(r.Rows[1].N) / float64(r.Rows[0].N)
	if ratio < 24 || ratio > 26 {
		t.Errorf("accuracy scaling ratio = %v, want 27", ratio)
	}
	render(t, r)
}

func TestChiSquareAcceptance(t *testing.T) {
	tr := testTrace(t)
	r, err := ChiSquareAcceptance(tr, core.TargetSize)
	if err != nil {
		t.Fatal(err)
	}
	if r.Replications != 50 {
		t.Fatalf("replications = %d", r.Replications)
	}
	// Statistical theory: ~5% rejections expected; allow generous slack
	// but catch gross miscalibration (the paper saw 2-3 of 50).
	if r.Rejected > 12 {
		t.Errorf("rejected %d of 50, far above the 0.05 level", r.Rejected)
	}
	render(t, r)
}

func TestAllSuiteOnSmallTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("suite run skipped in -short mode")
	}
	tr := testTrace(t)
	results, err := All(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 27 {
		t.Fatalf("results = %d, want 27", len(results))
	}
	var buf bytes.Buffer
	if err := WriteAll(&buf, results); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"table1", "table2", "table3", "figure1", "figure2", "figure3",
		"figure4", "figure5", "figure6", "figure7", "figure8", "figure9",
		"figure10", "figure11", "sec5.1", "sec5.2", "ext-ports", "ext-matrix",
		"sec5-theory", "ext-adaptive", "ext-fixwest", "ext-burst", "ext-artshist", "ext-flows", "ext-heavyhitters", "repro-check"} {
		if !strings.Contains(buf.String(), "== "+id) {
			t.Errorf("output missing %s", id)
		}
	}
}
