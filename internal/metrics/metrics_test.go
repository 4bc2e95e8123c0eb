package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"netsample/internal/dist"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestChiSquareKnown(t *testing.T) {
	// Classic die example: observed vs fair expectation.
	observed := []float64{5, 8, 9, 8, 10, 20}
	expected := []float64{10, 10, 10, 10, 10, 10}
	chi2, err := ChiSquare(observed, expected)
	if err != nil {
		t.Fatal(err)
	}
	want := (25.0 + 4 + 1 + 4 + 0 + 100) / 10
	if !almost(chi2, want, 1e-12) {
		t.Fatalf("chi2 = %v, want %v", chi2, want)
	}
}

func TestChiSquareZeroForIdentical(t *testing.T) {
	v := []float64{3, 7, 12}
	chi2, err := ChiSquare(v, v)
	if err != nil || chi2 != 0 {
		t.Fatalf("chi2 self = %v, %v", chi2, err)
	}
}

func TestChiSquareErrors(t *testing.T) {
	if _, err := ChiSquare(nil, nil); err != ErrShape {
		t.Error("empty should fail")
	}
	if _, err := ChiSquare([]float64{1}, []float64{1, 2}); err != ErrShape {
		t.Error("length mismatch should fail")
	}
	if _, err := ChiSquare([]float64{1}, []float64{0}); err != ErrShape {
		t.Error("zero expected should fail")
	}
	if _, err := ChiSquare([]float64{-1}, []float64{1}); err != ErrShape {
		t.Error("negative observed should fail")
	}
	if _, err := ChiSquare([]float64{math.NaN()}, []float64{1}); err != ErrShape {
		t.Error("NaN should fail")
	}
	if _, err := ChiSquare([]float64{math.Inf(1)}, []float64{1}); err != ErrShape {
		t.Error("Inf should fail")
	}
}

func TestSignificance(t *testing.T) {
	// chi2 = 3.84 with 1 df has significance ~0.05.
	observed := []float64{100 + 9.8, 100 - 9.8}
	expected := []float64{100, 100}
	sig, err := Significance(observed, expected, 0)
	if err != nil {
		t.Fatal(err)
	}
	// chi2 = 2*(9.8^2)/100 = 1.9208 → p = 0.1657
	if !almost(sig, 0.16576, 1e-3) {
		t.Fatalf("sig = %v", sig)
	}
}

func TestSignificanceDFError(t *testing.T) {
	if _, err := Significance([]float64{5}, []float64{5}, 0); err == nil {
		t.Error("single bin should fail (0 df)")
	}
	if _, err := Significance([]float64{5, 5}, []float64{5, 5}, 1); err == nil {
		t.Error("fitted eats the last df")
	}
}

func TestCost(t *testing.T) {
	c, err := Cost([]float64{10, 20, 30}, []float64{12, 15, 33})
	if err != nil {
		t.Fatal(err)
	}
	if c != 2+5+3 {
		t.Fatalf("cost = %v", c)
	}
}

func TestCostAllowsZeroExpected(t *testing.T) {
	c, err := Cost([]float64{5}, []float64{0})
	if err != nil || c != 5 {
		t.Fatalf("cost = %v, %v", c, err)
	}
}

func TestRelativeCost(t *testing.T) {
	rc, err := RelativeCost([]float64{10}, []float64{20}, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(rc, 0.2, 1e-12) {
		t.Fatalf("rcost = %v", rc)
	}
	if _, err := RelativeCost([]float64{1}, []float64{1}, 0); err == nil {
		t.Error("fraction 0 should fail")
	}
	if _, err := RelativeCost([]float64{1}, []float64{1}, 1.5); err == nil {
		t.Error("fraction > 1 should fail")
	}
}

func TestPaxsonX2SampleSizeInvariance(t *testing.T) {
	// Scaling both vectors by the same factor leaves X² unchanged when
	// proportions are unchanged and counts scale linearly... X² is
	// invariant when O and E both scale: (kO-kE)²/(kE)² = (O-E)²/E².
	o := []float64{90, 210, 700}
	e := []float64{100, 200, 700}
	x1, err := PaxsonX2(o, e)
	if err != nil {
		t.Fatal(err)
	}
	o10 := []float64{900, 2100, 7000}
	e10 := []float64{1000, 2000, 7000}
	x2, err := PaxsonX2(o10, e10)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(x1, x2, 1e-12) {
		t.Fatalf("X² not scale-invariant: %v vs %v", x1, x2)
	}
	// Whereas raw chi-square grows by the factor.
	c1, _ := ChiSquare(o, e)
	c2, _ := ChiSquare(o10, e10)
	if !almost(c2, 10*c1, 1e-9) {
		t.Fatalf("chi2 scaling unexpected: %v vs %v", c1, c2)
	}
}

func TestAvgNormDeviation(t *testing.T) {
	o := []float64{110, 90}
	e := []float64{100, 100}
	k, err := AvgNormDeviation(o, e)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(k, 0.1, 1e-12) { // each bin deviates by exactly 10%
		t.Fatalf("k = %v", k)
	}
}

func TestPhiZeroPerfectSample(t *testing.T) {
	v := []float64{500, 300, 200}
	phi, err := Phi(v, v)
	if err != nil || phi != 0 {
		t.Fatalf("phi self = %v, %v", phi, err)
	}
}

func TestPhiKnown(t *testing.T) {
	o := []float64{120, 80}
	e := []float64{100, 100}
	// chi2 = 400/100 + 400/100 = 8; n = 400; phi = sqrt(0.02).
	phi, err := Phi(o, e)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(phi, math.Sqrt(0.02), 1e-12) {
		t.Fatalf("phi = %v", phi)
	}
}

func TestPhiSampleSizeInsensitivity(t *testing.T) {
	// The paper chose phi because it is insensitive to sample size:
	// scaling O and E by a common factor leaves phi unchanged.
	o := []float64{120, 80}
	e := []float64{100, 100}
	phi1, _ := Phi(o, e)
	o2 := []float64{1200, 800}
	e2 := []float64{1000, 1000}
	phi2, _ := Phi(o2, e2)
	if !almost(phi1, phi2, 1e-12) {
		t.Fatalf("phi not scale-invariant: %v vs %v", phi1, phi2)
	}
}

func TestPhiZeroTotal(t *testing.T) {
	if _, err := Phi([]float64{0}, []float64{0}); err == nil {
		t.Error("zero totals should fail")
	}
}

func TestMetricsNonNegativeProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := dist.NewRNG(uint64(seed))
		n := 2 + r.IntN(8)
		o := make([]float64, n)
		e := make([]float64, n)
		for i := range o {
			o[i] = float64(r.IntN(1000))
			e[i] = float64(1 + r.IntN(1000))
		}
		chi2, err := ChiSquare(o, e)
		if err != nil || chi2 < 0 {
			return false
		}
		c, err := Cost(o, e)
		if err != nil || c < 0 {
			return false
		}
		x2, err := PaxsonX2(o, e)
		if err != nil || x2 < 0 {
			return false
		}
		phi, err := Phi(o, e)
		if err != nil || phi < 0 {
			return false
		}
		sig, err := Significance(o, e, 0)
		return err == nil && sig >= 0 && sig <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// evaluate computes all metrics at once. fraction is the sampling
// fraction used for RelativeCost; fitted is passed to Significance.
func evaluate(observed, expected []float64, fraction float64, fitted int) (Report, error) {
	var r Report
	var err error
	if r.ChiSquare, err = ChiSquare(observed, expected); err != nil {
		return Report{}, err
	}
	if r.Significance, err = Significance(observed, expected, fitted); err != nil {
		return Report{}, err
	}
	if r.Cost, err = Cost(observed, expected); err != nil {
		return Report{}, err
	}
	if r.RelativeCost, err = RelativeCost(observed, expected, fraction); err != nil {
		return Report{}, err
	}
	if r.PaxsonX2, err = PaxsonX2(observed, expected); err != nil {
		return Report{}, err
	}
	if r.AvgNormDev, err = AvgNormDeviation(observed, expected); err != nil {
		return Report{}, err
	}
	if r.Phi, err = Phi(observed, expected); err != nil {
		return Report{}, err
	}
	return r, nil
}

func TestEvaluateConsistent(t *testing.T) {
	o := []float64{90, 210, 700}
	e := []float64{100, 200, 700}
	rep, err := evaluate(o, e, 0.02, 0)
	if err != nil {
		t.Fatal(err)
	}
	chi2, _ := ChiSquare(o, e)
	cost, _ := Cost(o, e)
	phi, _ := Phi(o, e)
	if rep.ChiSquare != chi2 || rep.Cost != cost || rep.Phi != phi {
		t.Fatalf("Evaluate inconsistent: %+v", rep)
	}
	if !almost(rep.RelativeCost, cost*0.02, 1e-12) {
		t.Fatalf("rcost = %v", rep.RelativeCost)
	}
}

func TestEvaluatePropagatesErrors(t *testing.T) {
	if _, err := evaluate([]float64{1}, []float64{0}, 0.5, 0); err == nil {
		t.Error("bad expected should fail")
	}
	if _, err := evaluate([]float64{1, 2}, []float64{1, 2}, 0, 0); err == nil {
		t.Error("bad fraction should fail")
	}
}
