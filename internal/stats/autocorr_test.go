package stats

import (
	"math"
	"testing"

	"netsample/internal/dist"
)

// autocorrelation reads the lags of xs through an Autocorrelator over
// the slice.
func autocorrelation(xs []float64, lags ...int) ([]float64, error) {
	a, err := NewAutocorrelator(len(xs), func(i int) float64 { return xs[i] })
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(lags))
	for i, h := range lags {
		if out[i], err = a.At(h); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func TestAutocorrelationLagZero(t *testing.T) {
	xs := []float64{1, 5, 2, 8, 3}
	ac, err := autocorrelation(xs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ac[0]-1) > 1e-12 {
		t.Fatalf("r(0) = %v, want 1", ac[0])
	}
}

func TestAutocorrelationWhiteNoise(t *testing.T) {
	r := dist.NewRNG(90)
	xs := make([]float64, 50000)
	for i := range xs {
		xs[i] = r.NormFloat64()
	}
	ac, err := autocorrelation(xs, 1, 5, 50)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range ac {
		if math.Abs(v) > 0.02 {
			t.Errorf("white-noise autocorrelation[%d] = %v", i, v)
		}
	}
}

func TestAutocorrelationAR1(t *testing.T) {
	// AR(1) with rho = 0.8: r(1) ≈ 0.8, r(2) ≈ 0.64.
	r := dist.NewRNG(91)
	const rho = 0.8
	xs := make([]float64, 100000)
	x := 0.0
	for i := range xs {
		x = rho*x + r.NormFloat64()
		xs[i] = x
	}
	ac, err := autocorrelation(xs, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ac[0]-0.8) > 0.02 {
		t.Errorf("r(1) = %v, want 0.8", ac[0])
	}
	if math.Abs(ac[1]-0.64) > 0.03 {
		t.Errorf("r(2) = %v, want 0.64", ac[1])
	}
}

func TestAutocorrelationAlternating(t *testing.T) {
	// Perfectly alternating series: r(1) ≈ -1.
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i % 2)
	}
	ac, err := autocorrelation(xs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ac[0] > -0.99 {
		t.Fatalf("r(1) = %v, want ≈ -1", ac[0])
	}
}

func TestAutocorrelationErrors(t *testing.T) {
	if _, err := autocorrelation(nil, 1); err != ErrEmpty {
		t.Errorf("empty: %v, want ErrEmpty", err)
	}
	if _, err := autocorrelation([]float64{1}, 0); err != ErrEmpty {
		t.Errorf("single element: %v, want ErrEmpty", err)
	}
	if _, err := autocorrelation([]float64{1, 2}, -1); err == nil {
		t.Error("negative lag accepted")
	}
	if _, err := autocorrelation([]float64{1, 2}, 2); err == nil {
		t.Error("lag >= n accepted")
	}
	if _, err := autocorrelation([]float64{3, 3, 3}, 1); err == nil {
		t.Error("constant series accepted")
	}
	// The in-place form reads no observation before refusing.
	never := func(int) float64 { panic("observation read") }
	if _, err := NewAutocorrelator(1, never); err != ErrEmpty {
		t.Errorf("n=1: %v, want ErrEmpty", err)
	}
}
