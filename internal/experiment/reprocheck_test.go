package experiment

import (
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
	if len(r.Rows) != 16 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if math.IsNaN(row.Measured) || math.IsInf(row.Measured, 0) {
			t.Errorf("%s measured = %v", row.Quantity, row.Measured)
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
	if r.ExactMatches() < 6 {
		t.Errorf("only %d exact matches", r.ExactMatches())
	}
	for _, row := range r.Rows {
		if math.Abs(row.RelDiff) > 0.5 {
			t.Errorf("%s off by %.0f%% (paper %v, measured %v)",
				row.Quantity, 100*row.RelDiff, row.Paper, row.Measured)
		}
	}
}
