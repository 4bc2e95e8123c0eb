package experiment

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"netsample/internal/core"
	"netsample/internal/trace"
)

func TestReproCheckSmallTrace(t *testing.T) {
	tr := testTrace(t)
	r, err := ReproCheck(core.NewProfile(tr))
	if err != nil {
		t.Fatal(err)
	}
	quantity, measured := strs(t, r, "quantity"), floats(t, r, "measured")
	if len(quantity) != 16 {
		t.Fatalf("rows = %d", len(quantity))
	}
	for i, m := range measured {
		if math.IsNaN(m) || math.IsInf(m, 0) {
			t.Errorf("%s measured = %v", quantity[i], m)
		}
	}
	out := render(t, r)
	if !strings.Contains(out, "within 1% of the paper") {
		t.Error("summary line missing")
	}
	if _, err := ReproCheck(core.NewProfile(&trace.Trace{})); err == nil {
		t.Error("empty trace accepted")
	}
}

func TestReproCheckHourScorecard(t *testing.T) {
	tr := hourTrace(t) // skips in -short mode
	r, err := ReproCheck(core.NewProfile(tr))
	if err != nil {
		t.Fatal(err)
	}
	// The calibrated hour hits at least six quantities exactly (the
	// discrete quantiles) and keeps every quantity within 50% - the
	// loosest row is the per-second skewness, a third-moment statistic
	// the calibration matches in sign and magnitude class only.
	// The line below the table counts the exact matches.
	var exact, of int
	below := tab(t, r).below
	if len(below) != 1 {
		t.Fatalf("lines below the table: %q", below)
	}
	if _, err := fmt.Sscanf(below[0], "%d of %d quantities", &exact, &of); err != nil {
		t.Fatalf("%q: %v", below[0], err)
	}
	if exact < 6 {
		t.Errorf("only %d exact matches", exact)
	}
	quantity, paper, measured, diff := strs(t, r, "quantity"), floats(t, r, "paper"),
		floats(t, r, "measured"), floats(t, r, "diff_pct")
	for i := range quantity {
		if math.Abs(diff[i]) > 50 {
			t.Errorf("%s off by %.0f%% (paper %v, measured %v)",
				quantity[i], diff[i], paper[i], measured[i])
		}
	}
}
