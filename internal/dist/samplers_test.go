package dist

import (
	"math"
	"testing"
)

func TestParetoSampler(t *testing.T) {
	r := NewRNG(25)
	p := Pareto{Xm: 2, Alpha: 2.5}
	var sum float64
	const n = 300000
	for i := 0; i < n; i++ {
		v := p.Sample(r)
		if v < 2 {
			t.Fatalf("Pareto below scale: %v", v)
		}
		sum += v
	}
	want := 2.5 * 2 / 1.5
	if mean := sum / n; math.Abs(mean-want)/want > 0.05 {
		t.Errorf("Pareto mean %v, want %v", mean, want)
	}
}
