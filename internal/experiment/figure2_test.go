package experiment

import (
	"slices"
	"strconv"
	"strings"
	"testing"
)

func TestFigure2Schematic(t *testing.T) {
	r, err := Figure2()
	if err != nil {
		t.Fatal(err)
	}
	if got := strs(t, r, "scheme"); !slices.Equal(got, []string{"systematic", "stratified", "random"}) {
		t.Fatalf("schemes = %v", got)
	}
	// Each scheme's selected indices, space-separated.
	var sel [3][]int
	for s, list := range strs(t, r, "selected_indices") {
		for _, f := range strings.Fields(list) {
			i, err := strconv.Atoi(f)
			if err != nil {
				t.Fatal(err)
			}
			sel[s] = append(sel[s], i)
		}
	}
	systematic, stratified, random := sel[0], sel[1], sel[2]
	if len(systematic) != 6 || len(stratified) != 6 || len(random) != 6 {
		t.Fatalf("selection counts: %d %d %d",
			len(systematic), len(stratified), len(random))
	}
	// Systematic picks indices 0,4,8,...; stratified one per bucket.
	for i, v := range systematic {
		if v != i*4 {
			t.Fatalf("systematic = %v", systematic)
		}
	}
	for i, v := range stratified {
		if v < i*4 || v >= (i+1)*4 {
			t.Fatalf("stratified pick %d = %d outside bucket", i, v)
		}
	}
	out := render(t, r)
	for _, want := range []string{"systematic:", "stratified:", "random:", "X"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	// Strip width: 24 cells + 5 bucket boundaries.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "systematic:") {
			strip := strings.Fields(line)[1]
			if len(strip) != 24+5 {
				t.Errorf("strip width %d: %q", len(strip), strip)
			}
		}
	}
}
