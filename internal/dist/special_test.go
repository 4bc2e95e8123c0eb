package dist

import (
	"math"
	"testing"
	"testing/quick"
)

// RegIncGammaP computes the regularized lower incomplete gamma function
// P(a, x) = γ(a, x)/Γ(a) from the same series and continued fraction as
// RegIncGammaQ: the closed forms below pin both through it.
func RegIncGammaP(a, x float64) (float64, error) {
	if a <= 0 || x < 0 || math.IsNaN(a) || math.IsNaN(x) {
		return 0, ErrDomain
	}
	if x == 0 {
		return 0, nil
	}
	if math.IsInf(x, 1) {
		return 1, nil
	}
	if x < a+1 {
		p, err := gammaSeries(a, x)
		return p, err
	}
	q, err := gammaContinuedFraction(a, x)
	return 1 - q, err
}

func TestRegIncGammaKnownValues(t *testing.T) {
	// P(1, x) = 1 - exp(-x); P(0.5, x) = erf(sqrt(x)).
	cases := []struct {
		a, x, want float64
	}{
		{1, 1, 1 - math.Exp(-1)},
		{1, 5, 1 - math.Exp(-5)},
		{0.5, 0.25, math.Erf(0.5)},
		{0.5, 4, math.Erf(2)},
		{2, 2, 1 - 3*math.Exp(-2)}, // P(2,x)=1-(1+x)e^-x
		{3, 10, 1 - (1+10+50)*math.Exp(-10)},
	}
	for _, c := range cases {
		got, err := RegIncGammaP(c.a, c.x)
		if err != nil {
			t.Fatalf("P(%v,%v): %v", c.a, c.x, err)
		}
		if math.Abs(got-c.want) > 1e-12 {
			t.Errorf("P(%v,%v) = %v, want %v", c.a, c.x, got, c.want)
		}
	}
}

func TestRegIncGammaComplement(t *testing.T) {
	for _, a := range []float64{0.5, 1, 2.5, 7, 30, 123} {
		for _, x := range []float64{0.01, 0.5, 1, 3, 10, 50, 200} {
			p, err1 := RegIncGammaP(a, x)
			q, err2 := RegIncGammaQ(a, x)
			if err1 != nil || err2 != nil {
				t.Fatalf("a=%v x=%v: %v %v", a, x, err1, err2)
			}
			if math.Abs(p+q-1) > 1e-12 {
				t.Errorf("P+Q = %v at a=%v x=%v", p+q, a, x)
			}
		}
	}
}

func TestRegIncGammaBoundaries(t *testing.T) {
	if p, err := RegIncGammaP(2, 0); err != nil || p != 0 {
		t.Errorf("P(2,0) = %v, %v; want 0, nil", p, err)
	}
	if q, err := RegIncGammaQ(2, 0); err != nil || q != 1 {
		t.Errorf("Q(2,0) = %v, %v; want 1, nil", q, err)
	}
	if p, err := RegIncGammaP(2, math.Inf(1)); err != nil || p != 1 {
		t.Errorf("P(2,inf) = %v, %v; want 1, nil", p, err)
	}
	if _, err := RegIncGammaP(0, 1); err == nil {
		t.Error("P(0,1) should fail")
	}
	if _, err := RegIncGammaP(1, -1); err == nil {
		t.Error("P(1,-1) should fail")
	}
	if _, err := RegIncGammaQ(-2, 1); err == nil {
		t.Error("Q(-2,1) should fail")
	}
}

func TestRegIncGammaMonotoneInX(t *testing.T) {
	f := func(seed int64) bool {
		r := NewRNG(uint64(seed))
		a := 0.1 + 20*r.Float64()
		x1 := 30 * r.Float64()
		x2 := x1 + 10*r.Float64()
		p1, err1 := RegIncGammaP(a, x1)
		p2, err2 := RegIncGammaP(a, x2)
		if err1 != nil || err2 != nil {
			return false
		}
		return p2 >= p1-1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNormalCDFKnownValues(t *testing.T) {
	cases := []struct{ z, want float64 }{
		{0, 0.5},
		{1.959963984540054, 0.975},
		{-1.959963984540054, 0.025},
		{1, 0.8413447460685429},
		{-2.5758293035489004, 0.005},
	}
	for _, c := range cases {
		if got := NormalCDF(c.z); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("NormalCDF(%v) = %v, want %v", c.z, got, c.want)
		}
	}
}

func TestNormalQuantileRoundTrip(t *testing.T) {
	for _, p := range []float64{0.001, 0.01, 0.025, 0.05, 0.5, 0.9, 0.95, 0.975, 0.999} {
		z, err := NormalQuantile(p)
		if err != nil {
			t.Fatalf("quantile(%v): %v", p, err)
		}
		if back := NormalCDF(z); math.Abs(back-p) > 1e-10 {
			t.Errorf("CDF(Quantile(%v)) = %v", p, back)
		}
	}
}

func TestNormalQuantileDomain(t *testing.T) {
	for _, p := range []float64{0, 1, -0.5, 1.5, math.NaN()} {
		if _, err := NormalQuantile(p); err == nil {
			t.Errorf("NormalQuantile(%v) should fail", p)
		}
	}
}

func TestNormalQuantile975(t *testing.T) {
	// The paper's 95% confidence sample-size formula uses z = 1.96.
	z, err := NormalQuantile(0.975)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(z-1.959963984540054) > 1e-9 {
		t.Fatalf("z_{0.975} = %v", z)
	}
}
