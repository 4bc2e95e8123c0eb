package experiment

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

func TestArtsHistFidelity(t *testing.T) {
	tr := testTrace(t)
	r, err := ArtsHist(tr)
	if err != nil {
		t.Fatal(err)
	}
	// The title carries the occupied bin count.
	var occupied int
	if _, err := fmt.Sscanf(r.Title()[strings.LastIndex(r.Title(), "(")+1:], "%d occupied bins", &occupied); err != nil {
		t.Fatalf("title %q: %v", r.Title(), err)
	}
	if occupied < 5 {
		t.Fatalf("occupied bins = %d; generator size diversity too low", occupied)
	}
	phis := floats(t, r, "phi")
	if !slices.Equal(ints(t, r, "granularity"), []int64{10, 50, 250, 1000, 5000}) || len(phis) != 5 {
		t.Fatal("shape mismatch")
	}
	// Fidelity degrades with coarser sampling; at the operational 1-in-50
	// the histogram remains very close.
	if phis[1] > 0.1 { // k = 50
		t.Errorf("phi at 1-in-50 = %v, want small", phis[1])
	}
	if !(phis[len(phis)-1] > phis[0]) {
		t.Errorf("phi did not grow: %v", phis)
	}
	out := render(t, r)
	if !strings.Contains(out, "ext-artshist") {
		t.Error("render missing id")
	}
}
