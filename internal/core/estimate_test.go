package core

import (
	"math"
	"testing"

	"netsample/internal/bins"
	"netsample/internal/dist"
	"netsample/internal/traffgen"
)

func TestEstimateMeanBasics(t *testing.T) {
	sample := []float64{10, 12, 8, 10, 10}
	e, err := EstimateMean(sample, 0, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if e.Value != 10 {
		t.Fatalf("mean = %v", e.Value)
	}
	if !(e.Low < 10 && 10 < e.High) {
		t.Fatalf("interval [%v, %v] malformed", e.Low, e.High)
	}
	if !e.Contains(10) || e.Contains(20) {
		t.Fatal("Contains wrong")
	}
}

func TestEstimateMeanErrors(t *testing.T) {
	if _, err := EstimateMean([]float64{1}, 0, 0.95); err != ErrBadSample {
		t.Error("tiny sample accepted")
	}
	if _, err := EstimateMean([]float64{1, 2}, 0, 0); err == nil {
		t.Error("confidence 0 accepted")
	}
	if _, err := EstimateMean([]float64{1, 2}, 0, 1); err == nil {
		t.Error("confidence 1 accepted")
	}
}

func TestEstimateMeanFPCNarrowsInterval(t *testing.T) {
	sample := make([]float64, 500)
	r := dist.NewRNG(80)
	for i := range sample {
		sample[i] = r.NormFloat64() * 10
	}
	inf, err := EstimateMean(sample, 0, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	fin, err := EstimateMean(sample, 1000, 0.95) // half the population sampled
	if err != nil {
		t.Fatal(err)
	}
	if !(fin.StdError < inf.StdError) {
		t.Fatalf("FPC did not narrow: %v vs %v", fin.StdError, inf.StdError)
	}
	ratio := fin.StdError / inf.StdError
	want := math.Sqrt(0.5)
	if math.Abs(ratio-want) > 1e-9 {
		t.Fatalf("FPC ratio = %v, want %v", ratio, want)
	}
}

func TestEstimateProportion(t *testing.T) {
	sample := []float64{40, 40, 552, 552, 552, 1500, 40, 40}
	e, err := EstimateProportion(sample, func(x float64) bool { return x < 41 }, 0, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if e.Value != 0.5 {
		t.Fatalf("p = %v", e.Value)
	}
	if e.Low < 0 || e.High > 1 {
		t.Fatalf("interval [%v, %v] outside [0,1]", e.Low, e.High)
	}
	if _, err := EstimateProportion(nil, func(float64) bool { return true }, 0, 0.95); err != ErrBadSample {
		t.Error("empty sample accepted")
	}
	if _, err := EstimateProportion(sample, func(float64) bool { return true }, 0, 2); err == nil {
		t.Error("bad confidence accepted")
	}
}

// TestEstimateCoverage verifies the operational promise: under repeated
// stratified sampling, the nominal 95% interval for the mean packet
// size covers the true population mean close to 95% of the time.
func TestEstimateCoverage(t *testing.T) {
	tr, err := traffgen.Generate(traffgen.SmallTrace(81))
	if err != nil {
		t.Fatal(err)
	}
	sizes := tr.Sizes()
	var truth float64
	for _, s := range sizes {
		truth += s
	}
	truth /= float64(len(sizes))

	r := dist.NewRNG(82)
	const runs = 300
	covered := 0
	for i := 0; i < runs; i++ {
		idx, err := StratifiedCount{K: 50}.Select(tr, r.Split())
		if err != nil {
			t.Fatal(err)
		}
		obs := Observations(tr, TargetSize, idx)
		e, err := EstimateMean(obs, tr.Len(), 0.95)
		if err != nil {
			t.Fatal(err)
		}
		if e.Contains(truth) {
			covered++
		}
	}
	rate := float64(covered) / runs
	// Stratification makes intervals conservative if anything; accept a
	// broad band around the nominal level.
	if rate < 0.88 || rate > 1.0 {
		t.Fatalf("coverage = %v, want ≈0.95", rate)
	}
}

// TestEstimateProportionAgreesWithEvaluator ties the estimator to the
// binned machinery: the estimated small-packet proportion from a sample
// should track the evaluator's population proportion.
func TestEstimateProportionAgreesWithEvaluator(t *testing.T) {
	tr, err := traffgen.Generate(traffgen.SmallTrace(83))
	if err != nil {
		t.Fatal(err)
	}
	ev, err := NewEvaluator(tr, TargetSize, bins.PacketSize())
	if err != nil {
		t.Fatal(err)
	}
	truth := ev.PopulationProportions()[0] // < 41 bytes

	idx, err := SystematicCount{K: 50}.Select(tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	obs := Observations(tr, TargetSize, idx)
	e, err := EstimateProportion(obs, func(x float64) bool { return x < 41 }, tr.Len(), 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if !e.Contains(truth) {
		t.Fatalf("99%% interval [%v, %v] misses truth %v", e.Low, e.High, truth)
	}
}

func TestEstimateMeanSmallSampleUsesT(t *testing.T) {
	// A 5-observation sample's 95% interval must use t_{0.975,4} ≈ 2.776
	// rather than z ≈ 1.96.
	sample := []float64{10, 12, 8, 11, 9}
	e, err := EstimateMean(sample, 0, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	halfWidth := (e.High - e.Low) / 2
	ratio := halfWidth / e.StdError
	if ratio < 2.7 || ratio > 2.85 {
		t.Fatalf("critical value = %v, want ≈2.776 (Student's t)", ratio)
	}
}

func TestEstimateMeanLargeSampleUsesNormal(t *testing.T) {
	r := dist.NewRNG(84)
	sample := make([]float64, 1000)
	for i := range sample {
		sample[i] = r.NormFloat64()
	}
	e, err := EstimateMean(sample, 0, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	ratio := (e.High - e.Low) / 2 / e.StdError
	if ratio < 1.95 || ratio > 1.97 {
		t.Fatalf("critical value = %v, want ≈1.96", ratio)
	}
}
