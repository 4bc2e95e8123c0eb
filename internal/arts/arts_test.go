package arts

import (
	"testing"

	"netsample/internal/trace"
)

func TestLengthHistogram(t *testing.T) {
	var h LengthHistogram
	h.Record(trace.Packet{Size: 0}, 1)
	h.Record(trace.Packet{Size: 49}, 1)
	h.Record(trace.Packet{Size: 50}, 1)
	h.Record(trace.Packet{Size: 552}, 2)
	h.Record(trace.Packet{Size: 1500}, 1)
	if h.Bins[0] != 2 {
		t.Errorf("bin 0 = %d", h.Bins[0])
	}
	if h.Bins[1] != 1 {
		t.Errorf("bin 1 = %d", h.Bins[1])
	}
	if h.Bins[11] != 2 { // 552/50 = 11
		t.Errorf("bin 11 = %d", h.Bins[11])
	}
	if h.Bins[LengthHistogramBins-1] != 1 { // 1500 overflows into last
		t.Errorf("last bin = %d", h.Bins[LengthHistogramBins-1])
	}
	var total uint64
	for _, v := range h.Bins {
		total += v
	}
	if total != 6 {
		t.Errorf("total = %d", total)
	}
}

// TestObjectSetProfiles pins each backbone's Table 1 object profile:
// T1 supports all seven objects, T3 the first three, in table order.
func TestObjectSetProfiles(t *testing.T) {
	t1, t3 := SupportedObjectNames(T1), SupportedObjectNames(T3)
	if len(t1) != 7 || len(t3) != 3 {
		t.Fatalf("T1 supports %d objects, T3 %d; want 7 and 3", len(t1), len(t3))
	}
	for i, name := range t3 {
		if t1[i] != name {
			t.Errorf("object %d: T3 lists %s, T1 %s", i, name, t1[i])
		}
	}
	if t1[3] != "length-histogram" {
		t.Errorf("first T1-only object is %s, want length-histogram", t1[3])
	}
	if T1.String() != "T1" || T3.String() != "T3" {
		t.Error("backbone names wrong")
	}
}
