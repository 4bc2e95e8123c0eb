package benchjson

import (
	"math"
	"strings"
	"testing"
)

func mkFile(pairs ...any) *File {
	f := &File{}
	for i := 0; i < len(pairs); i += 2 {
		f.Benchmarks = append(f.Benchmarks, Benchmark{
			Name:    pairs[i].(string),
			NsPerOp: pairs[i+1].(float64),
		})
	}
	return f
}

func TestCompare(t *testing.T) {
	old := mkFile("BenchmarkA", 100.0, "BenchmarkB", 200.0, "BenchmarkGone", 50.0)
	cur := mkFile("BenchmarkA", 150.0, "BenchmarkB", 100.0, "BenchmarkNew", 10.0)
	c := Compare(old, cur)

	if len(c.Deltas) != 2 {
		t.Fatalf("got %d deltas, want 2", len(c.Deltas))
	}
	// Sorted worst-first: A regressed 1.5x, B improved 0.5x.
	if c.Deltas[0].Name != "BenchmarkA" || c.Deltas[0].Ratio != 1.5 {
		t.Errorf("worst delta = %+v", c.Deltas[0])
	}
	if c.Deltas[1].Name != "BenchmarkB" || c.Deltas[1].Ratio != 0.5 {
		t.Errorf("second delta = %+v", c.Deltas[1])
	}
	// geomean(1.5, 0.5) = sqrt(0.75)
	if want := math.Sqrt(0.75); math.Abs(c.GeomeanRatio-want) > 1e-12 {
		t.Errorf("geomean = %v, want %v", c.GeomeanRatio, want)
	}
	if len(c.OnlyOld) != 1 || c.OnlyOld[0] != "BenchmarkGone" {
		t.Errorf("OnlyOld = %v", c.OnlyOld)
	}
	if len(c.OnlyNew) != 1 || c.OnlyNew[0] != "BenchmarkNew" {
		t.Errorf("OnlyNew = %v", c.OnlyNew)
	}

	regs := c.Regressions(1.25)
	if len(regs) != 1 || regs[0].Name != "BenchmarkA" {
		t.Errorf("Regressions(1.25) = %v", regs)
	}
	if regs := c.Regressions(2.0); len(regs) != 0 {
		t.Errorf("Regressions(2.0) = %v", regs)
	}

	out := c.Format(1.25)
	if !strings.Contains(out, "<< regression") || !strings.Contains(out, "BenchmarkNew") {
		t.Errorf("Format output missing sections:\n%s", out)
	}
	// Single-procs suites collapse to one group and skip the per-procs
	// lines — the overall geomean already says everything.
	if len(c.ByProcs) != 1 || c.ByProcs[0].Procs != 1 || c.ByProcs[0].N != 2 {
		t.Errorf("ByProcs = %+v, want one procs=1 group of 2", c.ByProcs)
	}
	if strings.Contains(out, "at procs=") {
		t.Errorf("single-procs Format printed per-procs lines:\n%s", out)
	}
}

// TestComparePairsByProcs checks -cpu series pair suffix-for-suffix:
// the same benchmark at different GOMAXPROCS counts must diff as
// distinct results, never cross-pair.
func TestComparePairsByProcs(t *testing.T) {
	mk := func(ns1, ns4 float64) *File {
		return &File{Benchmarks: []Benchmark{
			{Name: "BenchmarkPipe", Procs: 1, NsPerOp: ns1},
			{Name: "BenchmarkPipe", Procs: 4, NsPerOp: ns4},
		}}
	}
	c := Compare(mk(100, 400), mk(110, 100))
	if len(c.Deltas) != 2 {
		t.Fatalf("got %d deltas, want 2: %+v", len(c.Deltas), c.Deltas)
	}
	byName := map[string]float64{}
	for _, d := range c.Deltas {
		byName[d.Name] = d.Ratio
	}
	if r := byName["BenchmarkPipe"]; math.Abs(r-1.1) > 1e-12 {
		t.Errorf("Procs=1 ratio = %v, want 1.1", r)
	}
	if r := byName["BenchmarkPipe-4"]; math.Abs(r-0.25) > 1e-12 {
		t.Errorf("Procs=4 ratio = %v, want 0.25", r)
	}
	// The geomean is grouped per procs value, so the procs=4 regression
	// in a scaling curve is never averaged against the procs=1 result.
	if len(c.ByProcs) != 2 {
		t.Fatalf("ByProcs = %+v, want 2 groups", c.ByProcs)
	}
	if g := c.ByProcs[0]; g.Procs != 1 || g.N != 1 || math.Abs(g.Ratio-1.1) > 1e-12 {
		t.Errorf("ByProcs[0] = %+v, want procs=1 ratio 1.1", g)
	}
	if g := c.ByProcs[1]; g.Procs != 4 || g.N != 1 || math.Abs(g.Ratio-0.25) > 1e-12 {
		t.Errorf("ByProcs[1] = %+v, want procs=4 ratio 0.25", g)
	}
	out := c.Format(1.25)
	if !strings.Contains(out, "geomean ratio at procs=1") ||
		!strings.Contains(out, "geomean ratio at procs=4") {
		t.Errorf("Format missing per-procs geomeans:\n%s", out)
	}

	// A -cpu count present on only one side is reported, not paired.
	c = Compare(mk(100, 400), &File{Benchmarks: []Benchmark{
		{Name: "BenchmarkPipe", Procs: 1, NsPerOp: 100},
		{Name: "BenchmarkPipe", Procs: 2, NsPerOp: 200},
	}})
	if len(c.OnlyNew) != 1 || c.OnlyNew[0] != "BenchmarkPipe-2" {
		t.Errorf("OnlyNew = %v, want [BenchmarkPipe-2]", c.OnlyNew)
	}
	if len(c.OnlyOld) != 1 || c.OnlyOld[0] != "BenchmarkPipe-4" {
		t.Errorf("OnlyOld = %v, want [BenchmarkPipe-4]", c.OnlyOld)
	}
}

func TestCompareEdgeCases(t *testing.T) {
	// Empty inputs: neutral geomean, no deltas.
	c := Compare(&File{}, &File{})
	if c.GeomeanRatio != 1 || len(c.Deltas) != 0 {
		t.Errorf("empty compare = %+v", c)
	}
	// Zero ns/op (e.g. a 1x smoke run of a sub-microsecond op) is
	// excluded rather than poisoning the geomean.
	c = Compare(mkFile("BenchmarkZ", 0.0), mkFile("BenchmarkZ", 100.0))
	if len(c.Deltas) != 0 || c.GeomeanRatio != 1 {
		t.Errorf("zero baseline produced deltas: %+v", c)
	}
	// Duplicate names (-count > 1) use the first occurrence.
	c = Compare(
		mkFile("BenchmarkD", 100.0, "BenchmarkD", 999.0),
		mkFile("BenchmarkD", 110.0, "BenchmarkD", 1.0),
	)
	if len(c.Deltas) != 1 || c.Deltas[0].Ratio != 1.1 {
		t.Errorf("duplicate handling = %+v", c.Deltas)
	}
	if err := c.Vacuous(); err != nil {
		t.Errorf("a comparison with a delta is vacuous: %v", err)
	}
	// A rename on one side leaves nothing to regress; the gate must not
	// read that as a pass.
	c = Compare(mkFile("BenchmarkOld", 100.0), mkFile("BenchmarkRenamed", 900.0))
	if len(c.Regressions(1.25)) != 0 {
		t.Errorf("unpaired benchmarks regressed: %+v", c.Deltas)
	}
	err := c.Vacuous()
	if err == nil || !strings.Contains(err.Error(), "BenchmarkOld") || !strings.Contains(err.Error(), "BenchmarkRenamed") {
		t.Errorf("Vacuous() = %v, want an error naming both unpaired benchmarks", err)
	}
}
