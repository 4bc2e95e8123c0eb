package dist

import (
	"errors"
	"math"
)

// ErrDomain is returned (or wrapped) by special functions and quantile
// routines when an argument lies outside the mathematical domain.
var ErrDomain = errors.New("dist: argument outside function domain")

// RegIncGammaQ computes the regularized upper incomplete gamma function
// Q(a, x) = Γ(a, x)/Γ(a) for a > 0, x >= 0.
//
// The implementation follows the classic approach: the series expansion
// of the lower function P = 1 - Q converges quickly for x < a+1, and the
// continued fraction (evaluated with the modified Lentz algorithm) for
// x >= a+1. Accuracy is ~1e-14 over the ranges used by the chi-square
// survival function in this study.
func RegIncGammaQ(a, x float64) (float64, error) {
	if a <= 0 || x < 0 || math.IsNaN(a) || math.IsNaN(x) {
		return 0, ErrDomain
	}
	if x == 0 {
		return 1, nil
	}
	if math.IsInf(x, 1) {
		return 0, nil
	}
	if x < a+1 {
		p, err := gammaSeries(a, x)
		return 1 - p, err
	}
	return gammaContinuedFraction(a, x)
}

const (
	gammaMaxIter = 500
	gammaEps     = 1e-15
)

// gammaSeries evaluates P(a,x) by its power series, valid for x < a+1.
func gammaSeries(a, x float64) (float64, error) {
	lg, _ := math.Lgamma(a)
	ap := a
	sum := 1 / a
	del := sum
	for i := 0; i < gammaMaxIter; i++ {
		ap++
		del *= x / ap
		sum += del
		if math.Abs(del) < math.Abs(sum)*gammaEps {
			return sum * math.Exp(-x+a*math.Log(x)-lg), nil
		}
	}
	return 0, errors.New("dist: incomplete gamma series failed to converge")
}

// gammaContinuedFraction evaluates Q(a,x) by Lentz's continued fraction,
// valid for x >= a+1.
func gammaContinuedFraction(a, x float64) (float64, error) {
	const tiny = 1e-300
	lg, _ := math.Lgamma(a)
	b := x + 1 - a
	c := 1 / tiny
	d := 1 / b
	h := d
	for i := 1; i <= gammaMaxIter; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = b + an/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < gammaEps {
			return math.Exp(-x+a*math.Log(x)-lg) * h, nil
		}
	}
	return 0, errors.New("dist: incomplete gamma continued fraction failed to converge")
}

// NormalCDF returns the standard normal cumulative distribution function
// Φ(z), computed from the error function.
func NormalCDF(z float64) float64 {
	return 0.5 * math.Erfc(-z/math.Sqrt2)
}

// NormalQuantile returns Φ⁻¹(p) for p in (0, 1). It uses the
// Beasley-Springer-Moro rational approximation refined by one Halley step
// against NormalCDF, giving roughly 1e-12 accuracy — far tighter than the
// two-decimal z values (e.g. 1.96) the paper's sample-size formula uses.
func NormalQuantile(p float64) (float64, error) {
	if math.IsNaN(p) || p <= 0 || p >= 1 {
		return 0, ErrDomain
	}
	z := bsmQuantile(p)
	// One Halley refinement step: solve Φ(z) - p = 0.
	e := NormalCDF(z) - p
	u := e * math.Sqrt(2*math.Pi) * math.Exp(z*z/2)
	z -= u / (1 + z*u/2)
	return z, nil
}

// bsmQuantile is the Beasley-Springer-Moro approximation to the standard
// normal quantile.
func bsmQuantile(p float64) float64 {
	a := [4]float64{2.50662823884, -18.61500062529, 41.39119773534, -25.44106049637}
	b := [4]float64{-8.47351093090, 23.08336743743, -21.06224101826, 3.13082909833}
	c := [9]float64{
		0.3374754822726147, 0.9761690190917186, 0.1607979714918209,
		0.0276438810333863, 0.0038405729373609, 0.0003951896511919,
		0.0000321767881768, 0.0000002888167364, 0.0000003960315187,
	}
	y := p - 0.5
	if math.Abs(y) < 0.42 {
		r := y * y
		return y * (((a[3]*r+a[2])*r+a[1])*r + a[0]) /
			((((b[3]*r+b[2])*r+b[1])*r+b[0])*r + 1)
	}
	r := p
	if y > 0 {
		r = 1 - p
	}
	r = math.Log(-math.Log(r))
	x := c[0] + r*(c[1]+r*(c[2]+r*(c[3]+r*(c[4]+r*(c[5]+r*(c[6]+r*(c[7]+r*c[8])))))))
	if y < 0 {
		return -x
	}
	return x
}
