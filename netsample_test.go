package netsample

import (
	"testing"
)

// The facade tests exercise the public API exactly as README documents
// it, on the fast two-minute population.

func facadeTrace(t *testing.T) *Trace {
	t.Helper()
	tr, err := Generate(SmallConfig(4711))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestFacadeQuickstartFlow(t *testing.T) {
	tr := facadeTrace(t)
	ev, err := NewSizeEvaluator(tr)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := Systematic(50).Select(tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	phi, err := ev.Phi(idx)
	if err != nil {
		t.Fatal(err)
	}
	if phi < 0 || phi > 0.2 {
		t.Fatalf("phi = %v, expected a small score for 1-in-50", phi)
	}
}

func TestFacadeSamplers(t *testing.T) {
	tr := facadeTrace(t)
	r := NewRNG(1)
	samplers := []Sampler{
		Systematic(100),
		Stratified(100),
		Random(100),
	}
	st, err := SystematicTimer(tr, 100)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := StratifiedTimer(tr, 100)
	if err != nil {
		t.Fatal(err)
	}
	samplers = append(samplers, st, rt)
	for _, s := range samplers {
		idx, err := s.Select(tr, r.Split())
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if len(idx) == 0 {
			t.Fatalf("%s selected nothing", s.Name())
		}
		// Roughly 1% of the population.
		frac := float64(len(idx)) / float64(tr.Len())
		if frac < 0.004 || frac > 0.02 {
			t.Errorf("%s fraction = %v, want ≈0.01", s.Name(), frac)
		}
	}
}

func TestFacadeInterarrivalEvaluator(t *testing.T) {
	tr := facadeTrace(t)
	ev, err := NewInterarrivalEvaluator(tr)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Target() != TargetInterarrival {
		t.Fatal("wrong target")
	}
	idx, err := Stratified(64).Select(tr, NewRNG(2))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ev.Score(idx)
	if err != nil {
		t.Fatal(err)
	}
	var zero Report
	if rep == zero {
		t.Fatal("empty report")
	}
}

func TestFacadeSampleSize(t *testing.T) {
	// The paper's worked example.
	n, err := SampleSizeForMean(232, 236, 5, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if n < 1587 || n > 1593 {
		t.Fatalf("n = %d, want ≈1590", n)
	}
}

func TestFacadeEstimation(t *testing.T) {
	tr := facadeTrace(t)
	idx, err := Systematic(50).Select(tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	obs := Observations(tr, TargetSize, idx)
	est, err := EstimateMean(obs, tr.Len(), 0.99)
	if err != nil {
		t.Fatal(err)
	}
	var truth float64
	for _, s := range tr.Sizes() {
		truth += s
	}
	truth /= float64(tr.Len())
	if !est.Contains(truth) {
		t.Fatalf("interval [%v, %v] misses %v", est.Low, est.High, truth)
	}
	p, err := EstimateProportion(obs, func(x float64) bool { return x < 41 }, tr.Len(), 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if p.Value <= 0 || p.Value >= 1 {
		t.Fatalf("proportion = %v", p.Value)
	}
}
