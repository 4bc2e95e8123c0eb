package experiment

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestAllQuickGolden pins the whole suite's text rendering on the quick
// population byte-for-byte — exactly what `experiments -quick` prints,
// which CI diffs against the same file. Regenerate with NSGEN_GOLDEN=1
// after an intentional change.
func TestAllQuickGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("suite run skipped in -short mode")
	}
	results, err := All(testTrace(t))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteAll(&buf, results); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "all_quick.txt")
	if os.Getenv("NSGEN_GOLDEN") != "" {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%s: %v (run with NSGEN_GOLDEN=1 to create)", path, err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("%s: output differs from golden; regenerate with NSGEN_GOLDEN=1 if intentional", path)
	}
}

// TestAllMatchesSerial pins the parallel suite runner to the serial
// reference: same trace in, byte-identical rendered output out,
// regardless of goroutine scheduling.
func TestAllMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("suite run skipped in -short mode")
	}
	tr := testTrace(t)

	par, err := All(tr)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := allSerial(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(par) != len(seq) {
		t.Fatalf("parallel returned %d results, serial %d", len(par), len(seq))
	}

	var parBuf, seqBuf bytes.Buffer
	if err := WriteAll(&parBuf, par); err != nil {
		t.Fatal(err)
	}
	if err := WriteAll(&seqBuf, seq); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(parBuf.Bytes(), seqBuf.Bytes()) {
		for i := range par {
			if render(t, par[i]) != render(t, seq[i]) {
				t.Fatalf("result %d (%s) differs between parallel and serial runs",
					i, par[i].ID())
			}
		}
		t.Fatal("parallel and serial outputs differ")
	}
}

// TestSuiteJobIDs holds the id each job of the suite declares — what
// Only and cmd/experiments -only select by, before anything runs — to
// the id its result reports.
func TestSuiteJobIDs(t *testing.T) {
	if testing.Short() {
		t.Skip("suite run skipped in -short mode")
	}
	results, err := All(testTrace(t))
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.ID() != suite[i].id {
			t.Errorf("job %d declares id %q, its result reports %q", i, suite[i].id, r.ID())
		}
	}
}

// TestOnlyRunsTheMatchingJobs checks Only against the job list: every
// job carrying the id and no other, an unknown id refused before there
// is a population.
func TestOnlyRunsTheMatchingJobs(t *testing.T) {
	tr := testTrace(t)
	for id, want := range map[string]int{"table3": 1, "sec5.2": 2} {
		run, err := Only(id)
		if err != nil {
			t.Fatal(err)
		}
		results, err := run(tr)
		if err != nil {
			t.Fatal(err)
		}
		if len(results) != want {
			t.Errorf("Only(%q) ran %d jobs, want %d", id, len(results), want)
		}
		for _, r := range results {
			if r.ID() != id {
				t.Errorf("Only(%q) ran %q", id, r.ID())
			}
		}
	}
	if _, err := Only("nosuch"); err == nil || !strings.Contains(err.Error(), "repro-check") {
		t.Errorf("Only(nosuch) = %v, want an error listing the ids", err)
	}
}
