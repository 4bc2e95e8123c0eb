package experiment

import (
	"strings"
	"testing"
)

func TestFIXWestRanking(t *testing.T) {
	tr := testTrace(t)
	r, err := FIXWest(tr)
	if err != nil {
		t.Fatal(err)
	}
	env := strs(t, r, "environment")
	if len(env) != 2 {
		t.Fatalf("rows = %d", len(env))
	}
	// The paper's footnote: the two environments agree. Both must show
	// the timer class worse than the packet class.
	packet, timer := floats(t, r, "packet_phi"), floats(t, r, "timer_phi")
	for i := range env {
		if !(timer[i] > packet[i]) {
			t.Errorf("%s: timer phi %v not worse than packet %v",
				env[i], timer[i], packet[i])
		}
	}
	out := render(t, r)
	if !strings.Contains(out, "FIX-West") {
		t.Error("render missing environment")
	}
}
