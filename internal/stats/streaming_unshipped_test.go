package stats

// Unshipped: no binary, example or facade name reaches what this file
// declares (nslint unreached), so it is compiled for its own tests only.
// It goes, with those tests, as the per-PR cap on test removals allows.

import "math"

// Running accumulates count, mean and variance in one pass using
// Welford's algorithm, so node simulations and collectors can summarize
// arbitrarily long packet streams without buffering them. The zero value
// is ready to use.
type Running struct {
	n    int64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add records one observation.
func (r *Running) Add(x float64) {
	r.n++
	if r.n == 1 {
		r.min, r.max = x, x
	} else {
		if x < r.min {
			r.min = x
		}
		if x > r.max {
			r.max = x
		}
	}
	d := x - r.mean
	r.mean += d / float64(r.n)
	r.m2 += d * (x - r.mean)
}

// N returns the number of observations.
func (r *Running) N() int64 { return r.n }

// Mean returns the running mean, or 0 before any observation.
func (r *Running) Mean() float64 { return r.mean }

// Variance returns the population variance, or 0 with fewer than two
// observations.
func (r *Running) Variance() float64 {
	if r.n < 2 {
		return 0
	}
	return r.m2 / float64(r.n)
}

// StdDev returns the population standard deviation.
func (r *Running) StdDev() float64 { return math.Sqrt(r.Variance()) }

// Min returns the smallest observation, or 0 before any observation.
func (r *Running) Min() float64 { return r.min }

// Max returns the largest observation, or 0 before any observation.
func (r *Running) Max() float64 { return r.max }

// Merge folds another Running accumulator into r, as if every observation
// seen by o had been Added to r (Chan et al. parallel combination). Useful
// for combining per-subsystem statistics at a node's main processor.
func (r *Running) Merge(o Running) {
	if o.n == 0 {
		return
	}
	if r.n == 0 {
		*r = o
		return
	}
	n1, n2 := float64(r.n), float64(o.n)
	delta := o.mean - r.mean
	total := n1 + n2
	r.mean += delta * n2 / total
	r.m2 += o.m2 + delta*delta*n1*n2/total
	r.n += o.n
	if o.min < r.min {
		r.min = o.min
	}
	if o.max > r.max {
		r.max = o.max
	}
}
