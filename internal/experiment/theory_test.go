package experiment

import (
	"strings"
	"testing"

	"netsample/internal/core"
)

func TestTheoryDiagnostics(t *testing.T) {
	tr := testTrace(t)
	r, err := Theory(tr, core.TargetSize)
	if err != nil {
		t.Fatal(err)
	}
	k := ints(t, r, "granularity")
	if len(k) != 5 {
		t.Fatalf("rows = %d", len(k))
	}
	pop, within, ratio := floats(t, r, "population_variance"), floats(t, r, "within_variance"), floats(t, r, "ratio")
	for i := range k {
		if pop[i] <= 0 || within[i] <= 0 {
			t.Fatalf("non-positive variance at k=%d: %v %v", k[i], pop[i], within[i])
		}
		// The calibrated population is close to randomly ordered.
		if ratio[i] < 0.8 || ratio[i] > 1.2 {
			t.Errorf("k=%d ratio %v far from 1", k[i], ratio[i])
		}
	}
	out := render(t, r)
	if !strings.Contains(out, "sec5-theory") {
		t.Error("render missing id")
	}
}

func TestTheoryInterarrivalTarget(t *testing.T) {
	tr := testTrace(t)
	r, err := Theory(tr, core.TargetInterarrival)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(r.Title(), ", interarrival target") {
		t.Fatalf("wrong target: %q", r.Title())
	}
	render(t, r)
}
