package dist

import "math"

// Pareto is a Pareto (power-law) distribution with scale Xm > 0 and shape
// Alpha > 0. Heavy-tailed ON periods produce the burstiness that makes
// timer-driven sampling miss dense packet runs, which is the effect the
// paper attributes timer methods' poor interarrival scores to.
type Pareto struct{ Xm, Alpha float64 }

// Sample draws a Pareto variate by inverse transform.
func (p Pareto) Sample(r *RNG) float64 {
	// 1-Float64() is in (0,1], avoiding a zero denominator.
	return p.Xm / math.Pow(1-r.Float64(), 1/p.Alpha)
}
