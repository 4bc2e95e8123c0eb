package main

import (
	"math"
	"testing"
)

// TestSummarizeMatchesPythonQuantiles pins the median/quartile helper
// to statistics.quantiles(xs, n=4) — the convention the benchmark
// contract measures spread with — on odd, even, tied, unsorted and
// two-element input.
func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	cases := []struct {
		name        string
		xs          []float64
		q1, med, q3 float64
	}{
		{"odd", []float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		{"even", []float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{"tied", []float64{2, 2, 2, 2, 2, 2}, 2, 2, 2},
		{"unsorted", []float64{9, 1, 7, 3, 5, 11, 13, 15, 17, 19}, 4.5, 10, 15.5},
		{"pair extrapolates", []float64{20, 10}, 7.5, 15, 22.5},
		{"ties in the middle", []float64{1, 3, 3, 3, 3, 9}, 2.5, 3, 4.5},
	}
	for _, c := range cases {
		in := append([]float64(nil), c.xs...)
		s := summarize(c.xs)
		if !near(s.Q1, c.q1) || !near(s.Median, c.med) || !near(s.Q3, c.q3) {
			t.Errorf("%s: got q1=%v med=%v q3=%v, want %v %v %v", c.name, s.Q1, s.Median, s.Q3, c.q1, c.med, c.q3)
		}
		if s.N != len(c.xs) {
			t.Errorf("%s: n=%d, want %d", c.name, s.N, len(c.xs))
		}
		for i := range in {
			if !near(in[i], c.xs[i]) {
				t.Fatalf("%s: summarize reordered its input", c.name)
			}
		}
	}
	one := summarize([]float64{7})
	if one.N != 1 || !near(one.Median, 7) || !near(one.Q1, 7) || !near(one.Q3, 7) || one.spread() > 0 {
		t.Errorf("single sample: %+v", one)
	}
	if empty := summarize(nil); empty.N != 0 {
		t.Errorf("empty input: %+v", empty)
	}
}

func TestSpreadAndPercentile(t *testing.T) {
	s := summarize([]float64{90, 100, 100, 100, 110})
	if want := (105.0 - 95.0) / 100; !near(s.spread(), want) {
		t.Errorf("spread = %v, want %v", s.spread(), want)
	}
	xs := []float64{5, 1, 4, 2, 3, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{50, 5.5}, {90, 9.1}, {99, 9.91}, {100, 10}, {0, 1}} {
		if got := percentile(xs, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); !near(got, 0) {
		t.Errorf("percentile of nothing = %v", got)
	}
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }
