package core

import (
	"testing"

	"netsample/internal/bins"
	"netsample/internal/dist"
	"netsample/internal/metrics"
	"netsample/internal/traffgen"
)

// TestSignificanceCalibratedUnderNull checks the statistical engine end
// to end: when samples really do come from the population (stratified
// sampling IS the null hypothesis), the χ² significance level must be
// calibrated — rejections at level α occur with frequency ≈ α. This is
// the property that made the paper's §5.2 test meaningful.
func TestSignificanceCalibratedUnderNull(t *testing.T) {
	tr, err := traffgen.Generate(traffgen.SmallTrace(4040))
	if err != nil {
		t.Fatal(err)
	}
	ev, err := NewEvaluator(tr, TargetSize, bins.PacketSize())
	if err != nil {
		t.Fatal(err)
	}
	r := dist.NewRNG(4041)
	const runs = 400
	reject05, reject20 := 0, 0
	for i := 0; i < runs; i++ {
		idx, err := StratifiedCount{K: 100}.Select(tr, r.Split())
		if err != nil {
			t.Fatal(err)
		}
		rep, err := ev.Score(idx)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Significance < 0.05 {
			reject05++
		}
		if rep.Significance < 0.20 {
			reject20++
		}
	}
	// Binomial(400, 0.05): sd ≈ 4.4 → accept 0.05 ± 0.045.
	f05 := float64(reject05) / runs
	if f05 > 0.095 {
		t.Errorf("rejection rate at 0.05 = %v, miscalibrated", f05)
	}
	// Binomial(400, 0.20): sd ≈ 2% → accept 0.20 ± 0.08.
	f20 := float64(reject20) / runs
	if f20 < 0.12 || f20 > 0.28 {
		t.Errorf("rejection rate at 0.20 = %v, miscalibrated", f20)
	}
}

// TestSignificanceRejectsWrongPopulation is the power side: samples
// drawn from a *different* population must be rejected far above the
// nominal rate.
func TestSignificanceRejectsWrongPopulation(t *testing.T) {
	popCfg := traffgen.SmallTrace(4042)
	pop, err := traffgen.Generate(popCfg)
	if err != nil {
		t.Fatal(err)
	}
	// A different environment: FIX-West mix shifts the size bins.
	otherCfg := traffgen.FIXWest()
	otherCfg.Duration = popCfg.Duration
	other, err := traffgen.Generate(otherCfg)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := NewEvaluator(pop, TargetSize, bins.PacketSize())
	if err != nil {
		t.Fatal(err)
	}
	r := dist.NewRNG(4043)
	const runs = 50
	rejected := 0
	for i := 0; i < runs; i++ {
		idx, err := StratifiedCount{K: 100}.Select(other, r.Split())
		if err != nil {
			t.Fatal(err)
		}
		// Score the foreign sample's observations against pop's bins by
		// transplanting the indices: build observations from `other`.
		obs := Observations(other, TargetSize, idx)
		counts := tally(bins.PacketSize(), obs)
		observed := make([]float64, len(counts))
		expected := make([]float64, len(counts))
		props := ev.PopulationProportions()
		n := 0.0
		for _, c := range counts {
			n += float64(c)
		}
		for j, c := range counts {
			observed[j] = float64(c)
			expected[j] = n * props[j]
		}
		sig, err := metrics.Significance(observed, expected, 0)
		if err != nil {
			t.Fatal(err)
		}
		if sig < 0.05 {
			rejected++
		}
	}
	if rejected < runs/2 {
		t.Fatalf("only %d of %d foreign samples rejected; test has no power", rejected, runs)
	}
}
