package experiment

import (
	"bytes"
	"fmt"
	"slices"
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
	if n := numRows(t, r); n != 7 {
		t.Fatalf("objects = %d", n)
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
	if n := numRows(t, r); n != 3 {
		t.Fatalf("rows = %d", n)
	}
	mean := floats(t, r, "mean")[0]
	if mean < 300 || mean > 550 {
		t.Errorf("pps mean = %v", mean)
	}
	var q []float64 // the pps row's min, quartiles and max
	for _, c := range []string{"min", "p25", "median", "p75", "max"} {
		q = append(q, floats(t, r, c)[0])
	}
	if !slices.IsSorted(q) {
		t.Errorf("quantiles not ordered: %v", q)
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
	// Row 0 is packet size, row 1 interarrival.
	if lo, hi := floats(t, r, "min")[0], floats(t, r, "max")[0]; lo != 28 || hi != 1500 {
		t.Errorf("size range = [%v, %v]", lo, hi)
	}
	if m := floats(t, r, "mean")[1]; m <= 0 {
		t.Errorf("iat mean = %v", m)
	}
	if want := fmt.Sprintf("total population = %d packets", tr.Len()); !strings.Contains(render(t, r), want) {
		t.Errorf("total mismatch: want %q", want)
	}
	if _, err := Table3(core.NewProfile(&trace.Trace{})); err == nil {
		t.Error("empty trace accepted")
	}
}

func TestFigure1ShowsDiscrepancyAndRecovery(t *testing.T) {
	r, err := Figure1(12, 8, 600)
	if err != nil {
		t.Fatal(err)
	}
	snmp, nnstat, sampling := ints(t, r, "snmp"), ints(t, r, "nnstat"), strs(t, r, "sampling")
	if len(snmp) != 12 {
		t.Fatalf("points = %d", len(snmp))
	}
	shortfall := func(m int) float64 {
		return 1 - float64(nnstat[m])/float64(snmp[m])
	}
	// Early months: processor keeps up.
	if s := shortfall(0); s > 0.02 {
		t.Errorf("month 1 shortfall %v, want ≈0", s)
	}
	// Just before the sampling deployment: visible undercount.
	if s := shortfall(7); s < 0.05 {
		t.Errorf("month 8 shortfall %v, want noticeable", s)
	}
	// After deployment: scaled estimate close to SNMP again.
	last := len(snmp) - 1
	if sampling[last] != "1-in-50" {
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
	phi, n := floats(t, r, "phi"), ints(t, r, "n")
	if len(phi) != 15 {
		t.Fatalf("points = %d", len(phi))
	}
	// phi must broadly rise as granularity coarsens (compare first vs
	// last point).
	first, last := phi[0], phi[len(phi)-1]
	if !(last > first) {
		t.Errorf("phi did not grow: %v → %v", first, last)
	}
	// Sample sizes shrink by ~2x per step.
	for i := 1; i < len(n); i++ {
		if n[i] >= n[i-1] {
			t.Errorf("sample size not shrinking at %d", i)
		}
	}
	render(t, r)
}

func TestFigures4And5(t *testing.T) {
	tr := testTrace(t)
	grans := []string{"k4", "k64", "k256", "k2048", "k16384"}
	for _, f := range []func(*trace.Trace) (Result, error){Figure4, Figure5} {
		r, err := f(tr)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(tab(t, r).cols) - 2; got != len(grans) {
			t.Fatalf("%d granularity columns, want %d", got, len(grans))
		}
		// Every row but the last, the φ row, is a bin's proportions.
		phis := make([]float64, len(grans))
		for g, col := range grans {
			props := floats(t, r, col)
			phis[g] = props[len(props)-1]
			var sum float64
			for _, p := range props[:len(props)-1] {
				sum += p
			}
			if sum < 0.999 || sum > 1.001 {
				t.Errorf("%s %s proportions sum %v", r.ID(), col, sum)
			}
		}
		if phis[0] > phis[len(phis)-1] == false && phis[len(phis)-1] == 0 {
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
	k := ints(t, r6, "granularity")
	if len(k) != 14 { // 2^2..2^15
		t.Fatalf("rows = %d", len(k))
	}
	low, q1, med, q3, high := floats(t, r6, "low"), floats(t, r6, "q1"), floats(t, r6, "median"),
		floats(t, r6, "q3"), floats(t, r6, "high")
	for i := range k {
		if box := []float64{low[i], q1[i], med[i], q3[i], high[i]}; !slices.IsSorted(box) {
			t.Errorf("k=%d box not ordered: %v", k[i], box)
		}
	}
	// Spread (IQR) should broadly grow with granularity: compare the
	// finest and coarsest.
	firstIQR := q3[0] - q1[0]
	lastIQR := q3[len(k)-1] - q1[len(k)-1]
	if !(lastIQR > firstIQR) {
		t.Errorf("replication spread did not grow: %v → %v", firstIQR, lastIQR)
	}
	render(t, r6)

	r7, err := Figure7(tr)
	if err != nil {
		t.Fatal(err)
	}
	means := floats(t, r7, "mean_phi")
	if len(means) != len(k) {
		t.Fatal("figure7 length mismatch")
	}
	if !(means[len(means)-1] > means[0]) {
		t.Error("mean phi did not grow with granularity")
	}
	render(t, r7)
}

// methodColumns returns the per-method columns of Figure 8 or 9: all
// but the granularity.
func methodColumns(t *testing.T, r Result) []string {
	t.Helper()
	var names []string
	for _, c := range tab(t, r).cols[1:] {
		names = append(names, c.name)
	}
	return names
}

func TestFigures8And9MethodOrdering(t *testing.T) {
	tr := testTrace(t)
	r8, err := Figure8(tr)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(methodColumns(t, r8)); n != 5 {
		t.Fatalf("series = %d", n)
	}
	render(t, r8)

	r9, err := Figure9(tr)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's headline on the interarrival target: timer methods
	// uniformly worse. Compare mean-over-grid per class.
	classMean := func(r Result, timer bool) float64 {
		var sum float64
		var n int
		for _, method := range methodColumns(t, r) {
			isTimer := strings.HasSuffix(method, "/timer")
			if isTimer != timer {
				continue
			}
			// Skip the finest granularities where everything is ~0.
			for _, v := range floats(t, r, method)[3:] {
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
	minutes := ints(t, r, "minutes")
	for _, col := range []string{"k16", "k256", "k4096"} {
		if len(floats(t, r, col)) != len(minutes) {
			t.Fatal("shape mismatch")
		}
	}
	render(t, r)
}

func TestSampleSizes(t *testing.T) {
	tr := testTrace(t)
	r, err := SampleSizes(core.NewProfile(tr))
	if err != nil {
		t.Fatal(err)
	}
	n := ints(t, r, "n")
	if len(n) != 4 {
		t.Fatalf("rows = %d", len(n))
	}
	// r=1% needs 25x the samples of r=5%.
	ratio := float64(n[1]) / float64(n[0])
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
	if reps := ints(t, r, "replications")[0]; reps != 50 {
		t.Fatalf("replications = %d", reps)
	}
	// Statistical theory: ~5% rejections expected; allow generous slack
	// but catch gross miscalibration (the paper saw 2-3 of 50).
	if rejected := ints(t, r, "rejected")[0]; rejected > 12 {
		t.Errorf("rejected %d of 50, far above the 0.05 level", rejected)
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
