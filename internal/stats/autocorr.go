package stats

import "errors"

// Autocorrelator is the sample autocorrelation of n observations read
// in place through x(0), …, x(n−1): r(h) = Σ(x_t-µ)(x_{t+h}-µ) /
// Σ(x_t-µ)². The mean and the denominator are computed once, so each
// lag read costs one more pass and no observation is ever copied. It
// underpins the §5 efficiency theory of the paper: positive correlation
// between elements within a systematic sample makes stratified or
// simple random sampling more efficient, while a randomly ordered
// population makes all three equivalent.
type Autocorrelator struct {
	n     int
	x     func(i int) float64
	mean  float64
	denom float64
}

// NewAutocorrelator describes the n observations x reads. It fails with
// ErrEmpty on fewer than two, and on a sequence with zero variance.
func NewAutocorrelator(n int, x func(i int) float64) (Autocorrelator, error) {
	if n < 2 {
		return Autocorrelator{}, ErrEmpty
	}
	var mean float64
	for i := 0; i < n; i++ {
		mean += x(i)
	}
	mean /= float64(n)
	var denom float64
	for i := 0; i < n; i++ {
		d := x(i) - mean
		denom += d * d
	}
	if denom == 0 {
		return Autocorrelator{}, errors.New("stats: zero variance, autocorrelation undefined")
	}
	return Autocorrelator{n: n, x: x, mean: mean, denom: denom}, nil
}

// At returns r(lag) for a lag in [0, n).
func (a Autocorrelator) At(lag int) (float64, error) {
	if lag < 0 || lag >= a.n {
		return 0, errors.New("stats: lag outside [0, n)")
	}
	var num float64
	for t := 0; t+lag < a.n; t++ {
		num += (a.x(t) - a.mean) * (a.x(t+lag) - a.mean)
	}
	return num / a.denom, nil
}
