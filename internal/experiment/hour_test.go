package experiment

import (
	"math"
	"strings"
	"testing"

	"netsample/internal/core"
	"netsample/internal/trace"
	"netsample/internal/traffgen"
)

// Hour-scale shape tests: the assertions EXPERIMENTS.md makes about the
// full calibrated population, run against the real hour trace. Skipped
// in -short mode; the trace is generated once per process and shared.

func hourTrace(t *testing.T) *trace.Trace {
	t.Helper()
	if testing.Short() {
		t.Skip("hour-scale shape tests skipped in -short mode")
	}
	tr, err := traffgen.Hour()
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestHourChiSquareAcceptanceMatchesPaper(t *testing.T) {
	tr := hourTrace(t)
	r, err := ChiSquareAcceptance(tr, core.TargetSize)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: "only two or three out of the fifty possible replications"
	// rejected at 0.05. Statistical expectation is 2.5; accept 0..7.
	if r.Rejected > 7 {
		t.Errorf("size target: %d of 50 rejected, paper saw 2-3", r.Rejected)
	}
	r2, err := ChiSquareAcceptance(tr, core.TargetInterarrival)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Rejected > 7 {
		t.Errorf("iat target: %d of 50 rejected", r2.Rejected)
	}
}

func TestHourFigure9TimerClassUniformlyWorse(t *testing.T) {
	tr := hourTrace(t)
	r, err := Figure9(tr)
	if err != nil {
		t.Fatal(err)
	}
	// At every granularity from 8 up, both timer methods must score
	// worse than every packet method — the paper's "uniformly worse".
	for gi, k := range r.Granularities {
		if k < 8 {
			continue
		}
		var worstPacket, bestTimer float64
		bestTimer = math.Inf(1)
		for _, s := range r.Series {
			if strings.HasSuffix(s.Method, "/timer") {
				if s.Means[gi] < bestTimer {
					bestTimer = s.Means[gi]
				}
			} else if s.Means[gi] > worstPacket {
				worstPacket = s.Means[gi]
			}
		}
		if !(bestTimer > worstPacket) {
			t.Errorf("k=%d: best timer %v not worse than worst packet %v",
				k, bestTimer, worstPacket)
		}
	}
}

func TestHourFigure7MonotoneTrend(t *testing.T) {
	tr := hourTrace(t)
	r, err := Figure7(tr)
	if err != nil {
		t.Fatal(err)
	}
	// Not strictly monotone (sampling noise) but the endpoints and the
	// broad trend must hold: last > 4x first, and at most two local
	// decreases larger than 30%.
	first, last := r.Means[0], r.Means[len(r.Means)-1]
	if !(last > 4*first) {
		t.Errorf("phi trend too flat: %v → %v", first, last)
	}
	bigDrops := 0
	for i := 1; i < len(r.Means); i++ {
		if r.Means[i] < 0.7*r.Means[i-1] {
			bigDrops++
		}
	}
	if bigDrops > 2 {
		t.Errorf("%d large reversals in the phi trend: %v", bigDrops, r.Means)
	}
}

func TestHourFigure10ImprovesWithElapsedTime(t *testing.T) {
	tr := hourTrace(t)
	r, err := Figure10(tr)
	if err != nil {
		t.Fatal(err)
	}
	for ki, k := range r.Granularities {
		row := r.Means[ki]
		if !(row[len(row)-1] < row[0]) {
			t.Errorf("k=%d: phi at 60 min (%v) not below 1 min (%v)",
				k, row[len(row)-1], row[0])
		}
	}
}

func TestHourSampleSizesNearPaper(t *testing.T) {
	tr := hourTrace(t)
	r, err := SampleSizes(core.NewProfile(tr))
	if err != nil {
		t.Fatal(err)
	}
	// The synthetic population's parameters differ slightly from the
	// paper's, so its Cochran sizes land within ~35% of 1590/2066.
	if r.Rows[0].N < 1000 || r.Rows[0].N > 2500 {
		t.Errorf("size n = %d, paper 1590", r.Rows[0].N)
	}
	if r.Rows[2].N < 1300 || r.Rows[2].N > 2800 {
		t.Errorf("iat n = %d, paper 2066", r.Rows[2].N)
	}
}
