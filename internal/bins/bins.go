// Package bins defines the binning schemes the paper uses to discretize
// its two characterization targets before computing chi-square-family
// disparity metrics (Section 7.1):
//
//   - packet sizes (bytes): < 41, 41–180, > 180 — chosen to separate ACKs
//     and character echoes, transaction-oriented traffic, and bulk
//     transfer;
//   - packet interarrival times (µs): < 800, 800–1199, 1200–2399,
//     2400–3599, ≥ 3600 — chosen to spread the population evenly.
//
// An Edged scheme maps float64 observations to bin indices; Count
// produces the observed-count vectors the metrics package consumes.
package bins

import (
	"errors"
	"fmt"
	"sort"
)

// Edged bins observations by a sorted slice of interior edges: bin 0 is
// (-inf, edges[0]), bin i is [edges[i-1], edges[i]), and the last bin is
// [edges[len-1], +inf). With interior edges {41, 181} this reproduces the
// paper's "less than 41 / 41–180 / greater than 180" packet-size ranges.
// No method changes an Edged once built, so one value may be shared.
type Edged struct {
	name   string
	edges  []float64
	labels []string
}

// NewEdged builds an Edged scheme from strictly increasing interior edges.
func NewEdged(name string, edges []float64) (*Edged, error) {
	if len(edges) == 0 {
		return nil, errors.New("bins: need at least one interior edge")
	}
	for i := 1; i < len(edges); i++ {
		if !(edges[i] > edges[i-1]) {
			return nil, fmt.Errorf("bins: edges not strictly increasing at %d", i)
		}
	}
	e := &Edged{name: name, edges: append([]float64(nil), edges...)}
	e.labels = make([]string, len(edges)+1)
	e.labels[0] = fmt.Sprintf("< %g", edges[0])
	for i := 1; i < len(edges); i++ {
		e.labels[i] = fmt.Sprintf("[%g, %g)", edges[i-1], edges[i])
	}
	e.labels[len(edges)] = fmt.Sprintf(">= %g", edges[len(edges)-1])
	return e, nil
}

// Name identifies the scheme in experiment output.
func (e *Edged) Name() string { return e.name }

// NumBins returns the number of bins, always >= 2.
func (e *Edged) NumBins() int { return len(e.edges) + 1 }

// Index returns the bin for x, in [0, NumBins()).
func (e *Edged) Index(x float64) int {
	// First edge strictly greater than x bounds the bin above;
	// sort.SearchFloat64s gives the first edge >= x, so adjust for
	// equality (edge values belong to the bin above the edge).
	i := sort.SearchFloat64s(e.edges, x)
	//nslint:allow floateq exact tie-break against a stored edge value, not a computed quantity
	if i < len(e.edges) && e.edges[i] == x {
		return i + 1
	}
	return i
}

// IndexLinear returns Index(x) via a branch-free linear scan of the
// interior edges: the bin index equals the number of edges ≤ x, so a
// compare-accumulate over the (few, cache-resident) edges beats the
// binary search for the paper's 2- and 4-edge schemes. The comparison
// is written !(x < edge) rather than x >= edge so a NaN observation
// accumulates every edge and lands in the last bin, exactly where
// Index's SearchFloat64s puts it — the two are bit-identical for every
// input.
//
//nslint:hotpath
func (e *Edged) IndexLinear(x float64) int {
	b := 0
	for _, edge := range e.edges {
		if !(x < edge) {
			b++
		}
	}
	return b
}

// IndexBatch fills dst[i] with Index(xs[i]) for the whole batch in one
// branchless pass — the compare-accumulate of IndexLinear with the edge
// loads hoisted out of the per-observation loop for the paper's two
// schemes. Bin indices are uint8, so the scheme must have at most 256
// bins (every scheme the evaluator accepts does; see core.ErrTooManyBins).
// len(dst) must be at least len(xs).
//
//nslint:hotpath
func (e *Edged) IndexBatch(dst []uint8, xs []float64) {
	dst = dst[:len(xs)]
	switch len(e.edges) {
	case 2: // PacketSize
		e0, e1 := e.edges[0], e.edges[1]
		for i, x := range xs {
			dst[i] = atOrAbove(x, e0) + atOrAbove(x, e1)
		}
	case 4: // Interarrival
		e0, e1, e2, e3 := e.edges[0], e.edges[1], e.edges[2], e.edges[3]
		for i, x := range xs {
			dst[i] = atOrAbove(x, e0) + atOrAbove(x, e1) + atOrAbove(x, e2) + atOrAbove(x, e3)
		}
	default:
		for i, x := range xs {
			dst[i] = uint8(e.IndexLinear(x))
		}
	}
}

// atOrAbove is 1 when x is not below edge (NaN included), else 0. Each
// call compiles to its own SETcc, so a sum of them has no branch; the
// same compares chained as `if … { b++ }` become jumps after the first.
func atOrAbove(x, edge float64) uint8 {
	var b uint8
	if !(x < edge) {
		b = 1
	}
	return b
}

// Label describes bin i for human-readable output.
func (e *Edged) Label(i int) string { return e.labels[i] }

// The paper's edges: packet sizes in bytes (Section 7.1.1) and
// interarrival times in µs (Section 7.1.2).
const (
	sizeEdge1, sizeEdge2                   = 41, 181
	gapEdge1, gapEdge2, gapEdge3, gapEdge4 = 800, 1200, 2400, 3600
)

// SizeBin is PacketSize().Index(float64(size)) in two compares and no
// branch, for the streaming node, which bins every packet it reads. The
// edges are integers, so x >= edge decides as float64(x) >= edge does.
func SizeBin(size uint16) int {
	return notBelow(int64(size), sizeEdge1) + notBelow(int64(size), sizeEdge2)
}

// GapBin is SizeBin for Interarrival() and a gap in µs.
func GapBin(gapUS int64) int {
	return notBelow(gapUS, gapEdge1) + notBelow(gapUS, gapEdge2) +
		notBelow(gapUS, gapEdge3) + notBelow(gapUS, gapEdge4)
}

// notBelow is 1 when x >= edge, else 0: a SETcc, as atOrAbove is.
func notBelow(x, edge int64) int {
	var b int
	if x >= edge {
		b = 1
	}
	return b
}

// The paper's two schemes, built once and shared by every caller.
var (
	packetSize   = mustEdged("paper-size", []float64{sizeEdge1, sizeEdge2})
	interarrival = mustEdged("paper-iat", []float64{gapEdge1, gapEdge2, gapEdge3, gapEdge4})
)

func mustEdged(name string, edges []float64) *Edged {
	e, err := NewEdged(name, edges)
	if err != nil {
		panic(err) // static edges; cannot fail
	}
	return e
}

// PacketSize returns the paper's packet-size scheme (Section 7.1.1):
// bytes-per-packet ranges <41, 41–180, >180.
func PacketSize() *Edged { return packetSize }

// Interarrival returns the paper's interarrival scheme (Section 7.1.2):
// microsecond ranges <800, 800–1199, 1200–2399, 2400–3599, >=3600.
func Interarrival() *Edged { return interarrival }

// Count tallies the observations xs into the scheme's bins.
//
//nslint:allow unreached reference tally the core and integration tests score the fused kernels against
func Count(s *Edged, xs []float64) []int64 {
	counts := make([]int64, s.NumBins())
	for _, x := range xs {
		counts[s.Index(x)]++
	}
	return counts
}
