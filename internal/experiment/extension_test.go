package experiment

import (
	"fmt"
	"strings"
	"testing"
)

// numCells reads a categorical figure's cell count from its title.
func numCells(t *testing.T, r Result) int {
	t.Helper()
	var n int
	if _, err := fmt.Sscanf(r.Title()[strings.LastIndex(r.Title(), "(")+1:], "%d cells", &n); err != nil {
		t.Fatalf("title %q: %v", r.Title(), err)
	}
	return n
}

func TestExtPorts(t *testing.T) {
	tr := testTrace(t)
	r, err := ExtPorts(tr)
	if err != nil {
		t.Fatal(err)
	}
	if c := numCells(t, r); c < 3 {
		t.Fatalf("cells = %d", c)
	}
	means := floats(t, r, "mean_phi")
	if len(means) != len(ints(t, r, "granularity")) {
		t.Fatal("shape mismatch")
	}
	// Degrades with coarser sampling.
	if !(means[len(means)-1] > means[0]) {
		t.Errorf("port phi did not grow: %v → %v", means[0], means[len(means)-1])
	}
	out := render(t, r)
	if !strings.Contains(out, "port-distribution") {
		t.Error("render missing name")
	}
}

func TestExtMatrixHarderThanPorts(t *testing.T) {
	tr := testTrace(t)
	p, err := ExtPorts(tr)
	if err != nil {
		t.Fatal(err)
	}
	m, err := ExtMatrix(tr)
	if err != nil {
		t.Fatal(err)
	}
	if mc, pc := numCells(t, m), numCells(t, p); mc <= pc {
		t.Fatalf("matrix cells %d not larger than port cells %d", mc, pc)
	}
	// Compare mean phi across the shared grid: matrix worse overall.
	var pSum, mSum float64
	pMeans, mMeans := floats(t, p, "mean_phi"), floats(t, m, "mean_phi")
	for i := range pMeans {
		pSum += pMeans[i]
		mSum += mMeans[i]
	}
	if !(mSum > pSum) {
		t.Fatalf("matrix total phi %v not worse than ports %v", mSum, pSum)
	}
	render(t, m)
}
