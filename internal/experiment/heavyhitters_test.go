package experiment

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"netsample/internal/core"
	"netsample/internal/nnstat"
	"netsample/internal/packet"
	"netsample/internal/trace"
	"netsample/internal/traffgen"
)

func TestHeavyHitters(t *testing.T) {
	tr := testTrace(t)
	r, err := HeavyHitters(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Overlap) != len(r.Granularities) {
		t.Fatal("shape mismatch")
	}
	// k=1 reproduces the truth exactly.
	if r.Overlap[0] != 1 {
		t.Fatalf("k=1 overlap = %v", r.Overlap[0])
	}
	// At the operational 1-in-50, most of the top-10 survives — the
	// heavy cells of the matrix are exactly what sampling preserves.
	if r.Overlap[2] < 0.6 {
		t.Errorf("1-in-50 overlap = %v, want most of the top-10", r.Overlap[2])
	}
	out := render(t, r)
	if !strings.Contains(out, "ext-heavyhitters") {
		t.Error("render missing id")
	}
}

// TestHeavyHittersRenderedTableGolden pins the rendered table on two
// generator seeds to what the per-packet string-keyed topPairs printed
// before the integer Key/Label contract replaced it.
func TestHeavyHittersRenderedTableGolden(t *testing.T) {
	const head = "== ext-heavyhitters: top-10 src-dst pairs surviving sampling (space-saving sketch of 256) ==\n  1/frac topN-overlap\n"
	for seed, want := range map[uint64]string{
		12345: head + "       1         1.00\n      10         1.00\n      50         1.00\n     250         0.60\n    1000         0.60\n",
		777:   head + "       1         1.00\n      10         1.00\n      50         0.90\n     250         0.80\n    1000         0.60\n",
	} {
		tr, err := traffgen.Generate(traffgen.SmallTrace(seed))
		if err != nil {
			t.Fatal(err)
		}
		r, err := HeavyHitters(tr)
		if err != nil {
			t.Fatal(err)
		}
		if got := render(t, r); got != want {
			t.Errorf("seed %d: rendered table changed:\n%s\nwant:\n%s", seed, got, want)
		}
	}
}

// TestTopPairsSketchSeesStringKeys holds topPairs' interned labels to a
// sketch fed one freshly formatted string per packet: same entries, in
// the same order, so the key bytes Top breaks ties by are unchanged.
func TestTopPairsSketchSeesStringKeys(t *testing.T) {
	tr := testTrace(t)
	idx, err := core.SystematicCount{K: 50}.Select(tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	// A sketch smaller than the pair count, so evictions (whose order
	// depends on the keys) are exercised too; the second feed reuses the
	// labels the first rendered, as HeavyHitters' feeds do.
	labels := pairLabels{spans: make(map[uint64][2]int)}
	for _, sketch := range []int{16, 256} {
		got, err := topPairs(tr, idx, 50, sketch, sketch, &labels)
		if err != nil {
			t.Fatal(err)
		}
		tk, err := nnstat.NewTopK(sketch)
		if err != nil {
			t.Fatal(err)
		}
		for _, i := range idx {
			s, d := tr.Packets[i].Src.NetworkNumber(), tr.Packets[i].Dst.NetworkNumber()
			tk.AddBytes(fmt.Appendf(nil, "%d.%d.%d.%d>%d.%d.%d.%d", s[0], s[1], s[2], s[3], d[0], d[1], d[2], d[3]), 50)
		}
		if want := tk.Top(sketch); !slices.Equal(got, want) {
			t.Errorf("sketch %d: entries differ:\n%v\nwant:\n%v", sketch, got, want)
		}
	}
}

// TestTopPairsAllocsFlatInPairs pins the label arena: a feed renders
// each distinct pair's label once, into one arena indexed by pair key,
// and hands the sketch slices of it, so sixteen times the distinct
// pairs adds only the arena's and the index's growth (20 measured). A
// string per label cost three allocations a pair (two addresses and
// the join): 2891 more. Every label fits a slot's first key
// buffer, so the sketch's evictions never regrow one.
func TestTopPairsAllocsFlatInPairs(t *testing.T) {
	feed := func(pairs int) float64 {
		tr := &trace.Trace{}
		for i := range 2 * pairs {
			j := i % pairs // class B nets 128.100 on, so every label has 21 bytes
			src := packet.Addr{byte(128 + j/100), byte(100 + j%100), 0, 0}
			tr.Packets = append(tr.Packets, trace.Packet{Src: src, Dst: packet.Addr{18, 0, 0, 1}})
		}
		return testing.AllocsPerRun(5, func() {
			labels := pairLabels{spans: make(map[uint64][2]int)}
			if _, err := topPairs(tr, nil, 1, 256, 10, &labels); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := feed(64), feed(1024)
	if grown := large - small; grown > 32 {
		t.Errorf("feeding 1024 distinct pairs allocates %.0f times, 64 pairs %.0f: %.0f more, want at most 32", large, small, grown)
	}
}
