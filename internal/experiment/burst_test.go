package experiment

import (
	"strings"
	"testing"
)

func TestBurstProfile(t *testing.T) {
	tr := testTrace(t)
	r, err := Burst(tr)
	if err != nil {
		t.Fatal(err)
	}
	idc := floats(t, r, "idc")
	if len(idc) != len(ints(t, r, "window_ms")) {
		t.Fatal("shape mismatch")
	}
	// The calibrated traffic is bursty: overdispersed at coarse
	// timescales (IDC > 1), the property that defeats timer sampling.
	last := idc[len(idc)-2] // the 1 s window
	if last <= 1 {
		t.Errorf("IDC at 1 s = %v, want > 1 (bursty)", last)
	}
	for i, v := range idc {
		if v <= 0 {
			t.Errorf("IDC[%d] = %v", i, v)
		}
	}
	out := render(t, r)
	if !strings.Contains(out, "ext-burst") {
		t.Error("render missing id")
	}
}
