package dist

import "math"

// ChiSquareSF returns the survival function P(X > x) — the significance
// level of an observed chi-square statistic x on df degrees of freedom.
// This is the quantity the paper's chi-square tests compare against 0.05.
func ChiSquareSF(x float64, df float64) (float64, error) {
	if df <= 0 || math.IsNaN(df) {
		return 0, ErrDomain
	}
	if x <= 0 {
		return 1, nil
	}
	return RegIncGammaQ(df/2, x/2)
}
