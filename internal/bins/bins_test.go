package bins

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"netsample/internal/dist"
)

func TestNewEdgedValidation(t *testing.T) {
	if _, err := NewEdged("x", nil); err == nil {
		t.Error("no edges should fail")
	}
	if _, err := NewEdged("x", []float64{2, 2}); err == nil {
		t.Error("tied edges should fail")
	}
	if _, err := NewEdged("x", []float64{3, 1}); err == nil {
		t.Error("decreasing edges should fail")
	}
}

func TestPacketSizeScheme(t *testing.T) {
	s := PacketSize()
	if s.NumBins() != 3 {
		t.Fatalf("NumBins = %d", s.NumBins())
	}
	cases := []struct {
		x    float64
		want int
	}{
		{28, 0}, {40, 0}, {40.9, 0}, // ACK/echo range: < 41
		{41, 1}, {100, 1}, {180, 1}, // transaction range: 41..180
		{181, 2}, {552, 2}, {1500, 2}, // bulk range: > 180
	}
	for _, c := range cases {
		if got := s.Index(c.x); got != c.want {
			t.Errorf("Index(%v) = %d, want %d", c.x, got, c.want)
		}
	}
}

func TestInterarrivalScheme(t *testing.T) {
	s := Interarrival()
	if s.NumBins() != 5 {
		t.Fatalf("NumBins = %d", s.NumBins())
	}
	cases := []struct {
		x    float64
		want int
	}{
		{0, 0}, {400, 0}, {799, 0},
		{800, 1}, {1199, 1},
		{1200, 2}, {2399, 2},
		{2400, 3}, {3599, 3},
		{3600, 4}, {49600, 4},
	}
	for _, c := range cases {
		if got := s.Index(c.x); got != c.want {
			t.Errorf("Index(%v) = %d, want %d", c.x, got, c.want)
		}
	}
}

func TestEdgedLabels(t *testing.T) {
	s := PacketSize()
	if s.Label(0) != "< 41" || s.Label(2) != ">= 181" {
		t.Errorf("labels: %q %q %q", s.Label(0), s.Label(1), s.Label(2))
	}
	if s.Name() != "paper-size" {
		t.Errorf("name = %q", s.Name())
	}
}

func TestIndexAlwaysInRangeProperty(t *testing.T) {
	schemes := []*Edged{PacketSize(), Interarrival()}
	f := func(x float64) bool {
		for _, s := range schemes {
			i := s.Index(x)
			if i < 0 || i >= s.NumBins() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// count tallies the observations xs into the scheme's bins, one Index
// call each.
func count(s *Edged, xs []float64) []int64 {
	counts := make([]int64, s.NumBins())
	for _, x := range xs {
		counts[s.Index(x)]++
	}
	return counts
}

func TestCountConservesTotal(t *testing.T) {
	r := dist.NewRNG(50)
	xs := make([]float64, 10000)
	for i := range xs {
		xs[i] = r.Float64() * 2000
	}
	counts := count(PacketSize(), xs)
	var total int64
	for _, c := range counts {
		total += c
	}
	if total != int64(len(xs)) {
		t.Fatalf("count total %d != %d", total, len(xs))
	}
}

// searchIndex is the binary-search form of Index, the reference the
// kernels are held to: the first edge strictly greater than x bounds
// the bin above, and sort.SearchFloat64s gives the first edge >= x, so
// equality is adjusted for (edge values belong to the bin above the
// edge). A NaN finds no edge and lands in the last bin.
func searchIndex(e *Edged, x float64) int {
	i := sort.SearchFloat64s(e.edges, x)
	if i < len(e.edges) && e.edges[i] == x {
		return i + 1
	}
	return i
}

// TestIndexKernelsBitIdentical proves the branchless kernels agree with
// the binary search on every input class: random values, exact edge
// ties (which belong to the bin above), values straddling each edge,
// and the non-finite specials — including NaN, which every path
// deliberately places in the last bin.
func TestIndexKernelsBitIdentical(t *testing.T) {
	schemes := []*Edged{PacketSize(), Interarrival()}
	if e, err := NewEdged("odd", []float64{-3, 0, 1.5, 7, 7.25, 1e9}); err != nil {
		t.Fatal(err)
	} else {
		schemes = append(schemes, e)
	}
	for _, e := range schemes {
		var xs []float64
		for _, edge := range e.edges {
			xs = append(xs, edge, edge-1, edge+1,
				math.Nextafter(edge, math.Inf(-1)), math.Nextafter(edge, math.Inf(1)))
		}
		xs = append(xs, math.Inf(-1), math.Inf(1), math.NaN(), 0, -0.0)
		r := dist.NewRNG(42)
		for i := 0; i < 4096; i++ {
			xs = append(xs, (r.Float64()-0.5)*5000)
		}
		dst := make([]uint8, len(xs))
		e.IndexBatch(dst, xs)
		for i, x := range xs {
			want := searchIndex(e, x)
			if got := e.Index(x); got != want {
				t.Fatalf("%s: Index(%v) = %d, search = %d", e.Name(), x, got, want)
			}
			if got := e.IndexLinear(x); got != want {
				t.Fatalf("%s: IndexLinear(%v) = %d, search = %d", e.Name(), x, got, want)
			}
			if int(dst[i]) != want {
				t.Fatalf("%s: IndexBatch(%v) = %d, search = %d", e.Name(), x, dst[i], want)
			}
		}
	}
}

// TestIntegerBinsMatchIndex pins SizeBin and GapBin to the paper's
// schemes on every integer at and either side of each edge, at both ends
// of their domains, and on random values, negative gaps included.
func TestIntegerBinsMatchIndex(t *testing.T) {
	size, gap := PacketSize(), Interarrival()
	sizes := []int64{0, 1, math.MaxUint16 - 1, math.MaxUint16}
	gaps := []int64{math.MinInt64, math.MinInt64 + 1, -1, 0, 1, 1 << 53, 1<<53 + 1, math.MaxInt64}
	for _, e := range size.edges {
		sizes = append(sizes, int64(e)-1, int64(e), int64(e)+1)
	}
	for _, e := range gap.edges {
		gaps = append(gaps, int64(e)-1, int64(e), int64(e)+1)
	}
	r := dist.NewRNG(7)
	for i := 0; i < 4096; i++ {
		sizes = append(sizes, int64(r.Uint64()%(math.MaxUint16+1)))
		gaps = append(gaps, int64(r.Uint64()%20000)-10000)
	}
	for _, x := range sizes {
		if got, want := SizeBin(uint16(x)), size.Index(float64(x)); got != want {
			t.Fatalf("SizeBin(%d) = %d, Index = %d", x, got, want)
		}
	}
	for _, x := range gaps {
		if got, want := GapBin(x), gap.Index(float64(x)); got != want {
			t.Fatalf("GapBin(%d) = %d, Index = %d", x, got, want)
		}
	}
}

// TestIndexBatchShortDst pins the length contract: the batch is sized
// by xs, and dst only needs that many elements.
func TestIndexBatchShortDst(t *testing.T) {
	e := PacketSize()
	dst := make([]uint8, 8)
	dst[3] = 0xAA
	e.IndexBatch(dst, []float64{10, 100, 1000})
	if dst[0] != 0 || dst[1] != 1 || dst[2] != 2 {
		t.Fatalf("batch = %v", dst[:3])
	}
	if dst[3] != 0xAA {
		t.Fatal("IndexBatch wrote past len(xs)")
	}
}
