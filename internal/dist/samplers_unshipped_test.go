package dist

// Unshipped: no binary, example or facade name reaches what this file
// declares (nslint unreached), so it is compiled for its own tests only.
// It goes, with those tests, as the per-PR cap on test removals allows.

import "math"

// Sampler produces random variates from a fixed distribution using the
// supplied generator. Implementations are immutable and safe to share;
// all mutable state lives in the RNG.
type Sampler interface {
	// Sample draws one variate.
	Sample(r *RNG) float64
	// Mean returns the distribution mean, or NaN if undefined.
	Mean() float64
}

// Exponential is an exponential distribution with the given Rate (λ > 0).
// Interarrival processes in the workload generator are built from it.
type Exponential struct{ Rate float64 }

// Sample draws an Exp(Rate) variate by inverse transform.
func (e Exponential) Sample(r *RNG) float64 { return r.ExpFloat64() / e.Rate }

// Mean returns 1/Rate.
func (e Exponential) Mean() float64 { return 1 / e.Rate }

// Uniform is a continuous uniform distribution on [Lo, Hi).
type Uniform struct{ Lo, Hi float64 }

// Sample draws a U[Lo,Hi) variate.
func (u Uniform) Sample(r *RNG) float64 { return u.Lo + (u.Hi-u.Lo)*r.Float64() }

// Mean returns (Lo+Hi)/2.
func (u Uniform) Mean() float64 { return (u.Lo + u.Hi) / 2 }

// Normal is a normal distribution with mean Mu and standard deviation
// Sigma (> 0).
type Normal struct{ Mu, Sigma float64 }

// Sample draws a N(Mu, Sigma²) variate.
func (n Normal) Sample(r *RNG) float64 { return n.Mu + n.Sigma*r.NormFloat64() }

// Mean returns Mu.
func (n Normal) Mean() float64 { return n.Mu }

// Lognormal is a lognormal distribution: exp(N(Mu, Sigma²)). File and
// burst sizes in wide-area traffic are classically lognormal-ish, so the
// bulk-transfer source model uses it.
type Lognormal struct{ Mu, Sigma float64 }

// Sample draws a lognormal variate.
func (l Lognormal) Sample(r *RNG) float64 {
	return math.Exp(l.Mu + l.Sigma*r.NormFloat64())
}

// Mean returns exp(Mu + Sigma²/2).
func (l Lognormal) Mean() float64 { return math.Exp(l.Mu + l.Sigma*l.Sigma/2) }

// Mean returns Alpha·Xm/(Alpha-1) for Alpha > 1, else NaN (infinite mean).
func (p Pareto) Mean() float64 {
	if p.Alpha <= 1 {
		return math.NaN()
	}
	return p.Alpha * p.Xm / (p.Alpha - 1)
}

// Poisson draws a Poisson-distributed count with the given mean. For
// small means it uses Knuth multiplication; for large means a normal
// approximation with continuity correction, which is ample for the
// per-interval flow-arrival counts generated here.
func Poisson(r *RNG, mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean < 30 {
		l := math.Exp(-mean)
		k := 0
		p := 1.0
		for {
			p *= r.Float64()
			if p <= l {
				return k
			}
			k++
		}
	}
	k := int(math.Round(mean + math.Sqrt(mean)*r.NormFloat64()))
	if k < 0 {
		k = 0
	}
	return k
}

// Empirical is a discrete distribution over Values with probabilities
// proportional to Weights. It samples in O(log n) by binary search over
// the cumulative weights. Construct with NewEmpirical.
type Empirical struct {
	values []float64
	cum    []float64 // cumulative weights, strictly increasing
	total  float64
	mean   float64
}

// NewEmpirical builds an Empirical distribution. values and weights must
// have equal non-zero length and weights must be non-negative with a
// positive sum.
func NewEmpirical(values, weights []float64) (*Empirical, error) {
	if len(values) == 0 || len(values) != len(weights) {
		return nil, ErrDomain
	}
	e := &Empirical{
		values: append([]float64(nil), values...),
		cum:    make([]float64, 0, len(weights)),
	}
	var mean float64
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) {
			return nil, ErrDomain
		}
		e.total += w
		e.cum = append(e.cum, e.total)
		mean += w * values[i]
	}
	if e.total <= 0 {
		return nil, ErrDomain
	}
	e.mean = mean / e.total
	return e, nil
}

// Sample draws one of the values with probability proportional to its
// weight.
func (e *Empirical) Sample(r *RNG) float64 {
	u := r.Float64() * e.total
	lo, hi := 0, len(e.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if e.cum[mid] <= u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return e.values[lo]
}

// Mean returns the weighted mean of the values.
func (e *Empirical) Mean() float64 { return e.mean }
