package stats

// Unshipped: no binary, example or facade name reaches what this file
// declares (nslint unreached), so it is compiled for its own tests only.
// It goes, with those tests, as the per-PR cap on test removals allows.

import (
	"errors"
	"sort"
)

// P2 estimates a single quantile of a stream in O(1) space using the
// P² algorithm (Jain & Chlamtac, 1985): five markers whose heights are
// adjusted with piecewise-parabolic interpolation as observations
// arrive. A collection agent can track, say, the median packet size for
// a whole poll interval without buffering the interval's packets —
// the same constraint that drove the backbone to sampling.
type P2 struct {
	q       float64
	n       [5]int     // marker positions (1-based counts)
	np      [5]float64 // desired positions
	dnp     [5]float64 // desired position increments
	heights [5]float64
	count   int
}

// NewP2 builds an estimator for the q-th quantile, 0 < q < 1.
func NewP2(q float64) (*P2, error) {
	if !(q > 0 && q < 1) {
		return nil, errors.New("stats: p2 quantile must be in (0,1)")
	}
	p := &P2{q: q}
	p.np = [5]float64{1, 1 + 2*q, 1 + 4*q, 3 + 2*q, 5}
	p.dnp = [5]float64{0, q / 2, q, (1 + q) / 2, 1}
	return p, nil
}

// Add records one observation.
func (p *P2) Add(x float64) {
	if p.count < 5 {
		p.heights[p.count] = x
		p.count++
		if p.count == 5 {
			sort.Float64s(p.heights[:])
			for i := range p.n {
				p.n[i] = i + 1
			}
		}
		return
	}
	p.count++
	// Find the cell k containing x and update extreme heights.
	var k int
	switch {
	case x < p.heights[0]:
		p.heights[0] = x
		k = 0
	case x >= p.heights[4]:
		p.heights[4] = x
		k = 3
	default:
		for k = 0; k < 4; k++ {
			if x < p.heights[k+1] {
				break
			}
		}
	}
	for i := k + 1; i < 5; i++ {
		p.n[i]++
	}
	for i := range p.np {
		p.np[i] += p.dnp[i]
	}
	// Adjust interior markers toward their desired positions.
	for i := 1; i <= 3; i++ {
		d := p.np[i] - float64(p.n[i])
		if (d >= 1 && p.n[i+1]-p.n[i] > 1) || (d <= -1 && p.n[i-1]-p.n[i] < -1) {
			s := 1
			if d < 0 {
				s = -1
			}
			h := p.parabolic(i, float64(s))
			if p.heights[i-1] < h && h < p.heights[i+1] {
				p.heights[i] = h
			} else {
				p.heights[i] = p.linear(i, s)
			}
			p.n[i] += s
		}
	}
}

// parabolic is the P² piecewise-parabolic height prediction.
func (p *P2) parabolic(i int, d float64) float64 {
	ni := float64(p.n[i])
	nm := float64(p.n[i-1])
	np := float64(p.n[i+1])
	return p.heights[i] + d/(np-nm)*
		((ni-nm+d)*(p.heights[i+1]-p.heights[i])/(np-ni)+
			(np-ni-d)*(p.heights[i]-p.heights[i-1])/(ni-nm))
}

// linear is the fallback height prediction.
func (p *P2) linear(i, s int) float64 {
	return p.heights[i] + float64(s)*(p.heights[i+s]-p.heights[i])/
		float64(p.n[i+s]-p.n[i])
}

// N returns the number of observations.
func (p *P2) N() int { return p.count }

// Quantile returns the current estimate. With fewer than five
// observations it falls back to the exact small-sample quantile.
func (p *P2) Quantile() (float64, error) {
	if p.count == 0 {
		return 0, ErrEmpty
	}
	if p.count < 5 {
		xs := append([]float64(nil), p.heights[:p.count]...)
		sort.Float64s(xs)
		return quantileSorted(xs, p.q), nil
	}
	return p.heights[2], nil
}
