package stats

import (
	"math"
	"testing"
	"testing/quick"

	"netsample/internal/dist"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestDescribeBasic(t *testing.T) {
	s, err := Describe([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 8 || s.Min != 2 || s.Max != 9 {
		t.Fatalf("N/min/max wrong: %+v", s)
	}
	if !almost(s.Mean, 5, 1e-12) {
		t.Errorf("mean = %v", s.Mean)
	}
	if !almost(s.StdDev, 2, 1e-12) { // classic example: population σ = 2
		t.Errorf("stddev = %v", s.StdDev)
	}
}

func TestDescribeEmpty(t *testing.T) {
	if _, err := Describe(nil); err != ErrEmpty {
		t.Fatalf("want ErrEmpty, got %v", err)
	}
}

func TestDescribeSingle(t *testing.T) {
	s, err := Describe([]float64{42})
	if err != nil {
		t.Fatal(err)
	}
	if s.Mean != 42 || s.StdDev != 0 || s.Skewness != 0 || s.Kurtosis != 0 {
		t.Fatalf("single-element summary wrong: %+v", s)
	}
}

func TestDescribeNormalShape(t *testing.T) {
	// Skewness ~0 and kurtosis ~3 for normal data.
	r := dist.NewRNG(31)
	xs := make([]float64, 100000)
	for i := range xs {
		xs[i] = r.NormFloat64()
	}
	s, err := Describe(xs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.Skewness) > 0.05 {
		t.Errorf("normal skewness = %v", s.Skewness)
	}
	if math.Abs(s.Kurtosis-3) > 0.1 {
		t.Errorf("normal kurtosis = %v", s.Kurtosis)
	}
}

func TestDescribeExponentialShape(t *testing.T) {
	// Exponential: skew 2, kurtosis 9.
	r := dist.NewRNG(32)
	xs := make([]float64, 300000)
	for i := range xs {
		xs[i] = r.ExpFloat64()
	}
	s, err := Describe(xs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.Skewness-2) > 0.1 {
		t.Errorf("exp skewness = %v", s.Skewness)
	}
	if math.Abs(s.Kurtosis-9) > 0.6 {
		t.Errorf("exp kurtosis = %v", s.Kurtosis)
	}
}

func TestQuantileKnown(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {0.1, 1.4},
	}
	for _, c := range cases {
		got, err := Quantile(xs, c.q)
		if err != nil {
			t.Fatal(err)
		}
		if !almost(got, c.want, 1e-12) {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestQuantileErrors(t *testing.T) {
	if _, err := Quantile(nil, 0.5); err != ErrEmpty {
		t.Error("empty should fail")
	}
	if _, err := Quantile([]float64{1}, -0.1); err == nil {
		t.Error("q<0 should fail")
	}
	if _, err := Quantile([]float64{1}, 1.1); err == nil {
		t.Error("q>1 should fail")
	}
	if _, err := Quantiles([]float64{1, 2}, 0.5, math.NaN()); err == nil {
		t.Error("NaN fraction should fail")
	}
}

func TestQuantileUnsortedInput(t *testing.T) {
	got, err := Quantile([]float64{5, 1, 4, 2, 3}, 0.5)
	if err != nil || got != 3 {
		t.Fatalf("median of shuffled = %v, %v", got, err)
	}
}

func TestQuantilesMatchQuantile(t *testing.T) {
	r := dist.NewRNG(33)
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = r.Float64() * 100
	}
	qs := []float64{0, 0.05, 0.25, 0.5, 0.75, 0.95, 1}
	batch, err := Quantiles(xs, qs...)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range qs {
		single, err := Quantile(xs, q)
		if err != nil {
			t.Fatal(err)
		}
		if batch[i] != single {
			t.Errorf("mismatch at q=%v: %v vs %v", q, batch[i], single)
		}
	}
}

func TestQuantileMonotoneProperty(t *testing.T) {
	r := dist.NewRNG(34)
	f := func(seed int64) bool {
		rr := dist.NewRNG(uint64(seed))
		n := 1 + rr.IntN(200)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rr.NormFloat64() * 10
		}
		q1 := r.Float64()
		q2 := q1 + (1-q1)*r.Float64()
		v1, err1 := Quantile(xs, q1)
		v2, err2 := Quantile(xs, q2)
		return err1 == nil && err2 == nil && v2 >= v1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPopulationSummary(t *testing.T) {
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = float64(i)
	}
	d, err := Describe(xs)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Population(d, func(rank int) float64 { return xs[rank] })
	if err != nil {
		t.Fatal(err)
	}
	if p.Min != 0 || p.Max != 100 || p.Median != 50 || p.P25 != 25 || p.P75 != 75 {
		t.Fatalf("population summary wrong: %+v", p)
	}
	if !almost(p.Mean, 50, 1e-12) {
		t.Errorf("mean = %v", p.Mean)
	}
}

func TestPopulationEmpty(t *testing.T) {
	if _, err := Population(Summary{}, nil); err != ErrEmpty {
		t.Fatal("empty population should fail")
	}
}
