package dist

import (
	"math"
	"testing"
	"testing/quick"
)

// ChiSquareCDF returns P(X <= x) for a chi-square random variable with df
// degrees of freedom: the regularized lower incomplete gamma function
// P(df/2, x/2). Nothing shipped needs the lower tail; it is the
// complement ChiSquareSF is checked against.
func ChiSquareCDF(x float64, df float64) (float64, error) {
	if df <= 0 || math.IsNaN(df) {
		return 0, ErrDomain
	}
	if x <= 0 {
		return 0, nil
	}
	return RegIncGammaP(df/2, x/2)
}

func TestChiSquareCDFKnownValues(t *testing.T) {
	// Reference values from standard chi-square tables.
	cases := []struct {
		x, df, want, tol float64
	}{
		{3.841458820694124, 1, 0.95, 1e-9},   // 0.95 quantile, df=1
		{5.991464547107979, 2, 0.95, 1e-9},   // df=2
		{9.487729036781154, 4, 0.95, 1e-9},   // df=4
		{0.7107230213973241, 2, 0.299, 2e-3}, // CDF(x,2)=1-exp(-x/2)
		{2, 2, 1 - math.Exp(-1), 1e-12},
		{18.307038053275146, 10, 0.95, 1e-9},
	}
	for _, c := range cases {
		got, err := ChiSquareCDF(c.x, c.df)
		if err != nil {
			t.Fatalf("CDF(%v,%v): %v", c.x, c.df, err)
		}
		if math.Abs(got-c.want) > c.tol {
			t.Errorf("CDF(%v,%v) = %v, want %v", c.x, c.df, got, c.want)
		}
	}
}

func TestChiSquareSFComplement(t *testing.T) {
	for _, df := range []float64{1, 2, 4, 7, 20} {
		for _, x := range []float64{0.1, 1, 5, 20, 60} {
			c, err1 := ChiSquareCDF(x, df)
			s, err2 := ChiSquareSF(x, df)
			if err1 != nil || err2 != nil {
				t.Fatalf("df=%v x=%v: %v %v", df, x, err1, err2)
			}
			if math.Abs(c+s-1) > 1e-12 {
				t.Errorf("CDF+SF = %v at df=%v x=%v", c+s, df, x)
			}
		}
	}
}

func TestChiSquareEdgeCases(t *testing.T) {
	if c, err := ChiSquareCDF(-1, 3); err != nil || c != 0 {
		t.Errorf("CDF(-1,3) = %v, %v", c, err)
	}
	if s, err := ChiSquareSF(0, 3); err != nil || s != 1 {
		t.Errorf("SF(0,3) = %v, %v", s, err)
	}
	if _, err := ChiSquareCDF(1, 0); err == nil {
		t.Error("CDF with df=0 should fail")
	}
	if _, err := ChiSquareSF(1, 0); err == nil {
		t.Error("SF with df=0 should fail")
	}
}

func TestChiSquareCDFMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := NewRNG(uint64(seed))
		df := 1 + r.Float64()*30
		x1 := r.Float64() * 50
		x2 := x1 + r.Float64()*20
		c1, err1 := ChiSquareCDF(x1, df)
		c2, err2 := ChiSquareCDF(x2, df)
		return err1 == nil && err2 == nil && c2 >= c1-1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestChiSquareAgainstSimulation(t *testing.T) {
	// Empirical check: sum of squares of df standard normals.
	r := NewRNG(99)
	const df = 5
	const n = 20000
	const crit = 11.070497693516351 // tabulated 0.95 quantile, df=5
	if sf, err := ChiSquareSF(crit, df); err != nil || math.Abs(sf-0.05) > 1e-9 {
		t.Fatalf("SF(%v,%d) = %v, %v; want 0.05", crit, df, sf, err)
	}
	exceed := 0
	for i := 0; i < n; i++ {
		var s float64
		for j := 0; j < df; j++ {
			z := r.NormFloat64()
			s += z * z
		}
		if s > crit {
			exceed++
		}
	}
	frac := float64(exceed) / n
	if math.Abs(frac-0.05) > 0.01 {
		t.Fatalf("empirical exceedance %v, want ~0.05", frac)
	}
}
