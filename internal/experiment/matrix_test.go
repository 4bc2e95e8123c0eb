package experiment

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// matrixQuick mirrors `experiments -matrix -quick` exactly (seed 1993,
// 30 s scenarios, k=10), so the checked-in goldens pin both this test
// and the CI matrix-smoke job that diffs the binary's output.
func matrixQuick(t *testing.T) *MatrixResult {
	t.Helper()
	r, err := Matrix(1993, 30*time.Second, 10)
	if err != nil {
		t.Fatalf("matrix: %v", err)
	}
	return r
}

// TestMatrixQuickGolden pins the quick matrix byte-for-byte in both
// export formats: any drift in scenario generation, sampling, window
// accounting, or the adaptive control law shows up as a golden diff.
// Regenerate with NSGEN_GOLDEN=1 after an intentional change.
func TestMatrixQuickGolden(t *testing.T) {
	r := matrixQuick(t)
	for _, g := range []struct {
		file   string
		render func(*bytes.Buffer) error
	}{
		{"matrix_quick.csv", func(b *bytes.Buffer) error { return r.WriteCSV(b) }},
		{"matrix_quick.json", func(b *bytes.Buffer) error { return r.WriteJSON(b) }},
	} {
		var buf bytes.Buffer
		if err := g.render(&buf); err != nil {
			t.Fatalf("%s: render: %v", g.file, err)
		}
		path := filepath.Join("testdata", g.file)
		if os.Getenv("NSGEN_GOLDEN") != "" {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			t.Logf("wrote %s", path)
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v (run with NSGEN_GOLDEN=1 to create)", path, err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("%s: output differs from golden; regenerate with NSGEN_GOLDEN=1 if intentional", g.file)
		}
	}
}

// TestMatrixShape sanity-checks the grid: one cell per scenario ×
// sampler, every cell windowed and populated, and the adaptive cells
// actually exercised the controller somewhere in the grid.
func TestMatrixShape(t *testing.T) {
	r := matrixQuick(t)
	wantCells := 5 * len(MatrixSamplers)
	if len(r.Cells) != wantCells {
		t.Fatalf("got %d cells, want %d", len(r.Cells), wantCells)
	}
	moves := 0
	for _, c := range r.Cells {
		if c.Windows < 2 {
			t.Errorf("%s/%s: only %d windows", c.Scenario, c.Sampler, c.Windows)
		}
		if c.Offered == 0 || c.Selected == 0 {
			t.Errorf("%s/%s: empty cell (offered=%d selected=%d)", c.Scenario, c.Sampler, c.Offered, c.Selected)
		}
		if c.Sampler == "adaptive" {
			moves += c.KChanges
		} else if c.KChanges != 0 {
			t.Errorf("%s/%s: fixed sampler reports %d k-changes", c.Scenario, c.Sampler, c.KChanges)
		}
	}
	if moves == 0 {
		t.Error("no adaptive cell moved k; the controller column is vacuous")
	}
}
