package stats

// Unshipped: no binary, example or facade name reaches what this file
// declares (nslint unreached), so it is compiled for its own tests only.
// It goes, with those tests, as the per-PR cap on test removals allows.

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
)

// Histogram counts observations falling into half-open bins defined by a
// strictly increasing edge slice: bin i covers [Edges[i], Edges[i+1]).
// Values below Edges[0] or at/above Edges[len-1] fall into the two
// overflow counters so totals are always conserved — the conservation
// property the chi-square machinery depends on.
type Histogram struct {
	Edges     []float64
	Counts    []int64
	Underflow int64
	Overflow  int64
}

// NewHistogram creates a histogram over the given edges. At least two
// strictly increasing edges are required.
func NewHistogram(edges []float64) (*Histogram, error) {
	if len(edges) < 2 {
		return nil, errors.New("stats: histogram needs at least two edges")
	}
	for i := 1; i < len(edges); i++ {
		if !(edges[i] > edges[i-1]) { // also rejects NaN
			return nil, fmt.Errorf("stats: histogram edges not strictly increasing at %d", i)
		}
	}
	return &Histogram{
		Edges:  append([]float64(nil), edges...),
		Counts: make([]int64, len(edges)-1),
	}, nil
}

// Add records one observation.
func (h *Histogram) Add(x float64) {
	switch {
	case x < h.Edges[0]:
		h.Underflow++
	case x >= h.Edges[len(h.Edges)-1]:
		h.Overflow++
	default:
		// Binary search for the bin with Edges[i] <= x < Edges[i+1].
		i := sort.SearchFloat64s(h.Edges, x)
		//nslint:allow floateq exact tie-break against a stored edge value, not a computed quantity
		if i < len(h.Edges) && h.Edges[i] == x {
			// x sits exactly on edge i: it belongs to bin i.
			h.Counts[i]++
		} else {
			h.Counts[i-1]++
		}
	}
}

// AddAll records every observation in xs.
func (h *Histogram) AddAll(xs []float64) {
	for _, x := range xs {
		h.Add(x)
	}
}

// Total returns the number of recorded observations, including overflow
// and underflow.
func (h *Histogram) Total() int64 {
	t := h.Underflow + h.Overflow
	for _, c := range h.Counts {
		t += c
	}
	return t
}

// Proportions returns each bin count divided by the in-range total. It
// returns nil if no observation fell inside the edges.
func (h *Histogram) Proportions() []float64 {
	var in int64
	for _, c := range h.Counts {
		in += c
	}
	if in == 0 {
		return nil
	}
	out := make([]float64, len(h.Counts))
	for i, c := range h.Counts {
		out[i] = float64(c) / float64(in)
	}
	return out
}

// Reset zeroes all counters, keeping the edges.
func (h *Histogram) Reset() {
	h.Underflow, h.Overflow = 0, 0
	for i := range h.Counts {
		h.Counts[i] = 0
	}
}

// String renders a compact text view of the histogram, useful in example
// programs and experiment output.
func (h *Histogram) String() string {
	var b strings.Builder
	total := h.Total()
	for i, c := range h.Counts {
		frac := 0.0
		if total > 0 {
			frac = float64(c) / float64(total)
		}
		fmt.Fprintf(&b, "[%g, %g): %d (%.1f%%)\n", h.Edges[i], h.Edges[i+1], c, 100*frac)
	}
	if h.Underflow > 0 {
		fmt.Fprintf(&b, "underflow: %d\n", h.Underflow)
	}
	if h.Overflow > 0 {
		fmt.Fprintf(&b, "overflow: %d\n", h.Overflow)
	}
	return b.String()
}

// FixedWidthEdges returns n+1 edges spanning [lo, hi] in n equal bins.
func FixedWidthEdges(lo, hi float64, n int) ([]float64, error) {
	if n < 1 || !(hi > lo) {
		return nil, errors.New("stats: invalid fixed-width edge parameters")
	}
	edges := make([]float64, n+1)
	w := (hi - lo) / float64(n)
	for i := range edges {
		edges[i] = lo + float64(i)*w
	}
	edges[n] = hi
	return edges, nil
}

// QuantileEdges returns n+1 edges placing roughly equal numbers of the
// observations xs in each of n bins. Duplicate quantile values (common in
// highly discrete data such as 400 µs clock ticks) are collapsed, so the
// result may have fewer bins than requested; at least two edges are
// always returned for non-empty input.
func QuantileEdges(xs []float64, n int) ([]float64, error) {
	if len(xs) == 0 {
		return nil, ErrEmpty
	}
	if n < 1 {
		return nil, errors.New("stats: quantile bin count must be positive")
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	edges := []float64{sorted[0]}
	for i := 1; i < n; i++ {
		q := quantileSorted(sorted, float64(i)/float64(n))
		if q > edges[len(edges)-1] {
			edges = append(edges, q)
		}
	}
	top := sorted[len(sorted)-1]
	// Nudge the top edge so the maximum lands inside the last bin rather
	// than in overflow.
	top = math.Nextafter(top, math.Inf(1))
	if top > edges[len(edges)-1] {
		edges = append(edges, top)
	} else {
		edges = append(edges, edges[len(edges)-1]+1)
	}
	return edges, nil
}
