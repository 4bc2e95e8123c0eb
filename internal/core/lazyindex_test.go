package core

import (
	"runtime"
	"sync"
	"testing"

	"netsample/internal/bins"
)

// evaluatorTargets are the two binned targets and their paper schemes.
var evaluatorTargets = []struct {
	target Target
	scheme *bins.Edged
}{
	{TargetSize, bins.PacketSize()},
	{TargetInterarrival, bins.Interarrival()},
}

// TestNewEvaluatorKeepsNoPerPacketState pins what a streaming node pays
// for its reference evaluators: NewEvaluator allocates O(bins) bytes
// however long the population, and scoring merged counts never builds
// the per-packet bin-index table only batch scoring reads.
func TestNewEvaluatorKeepsNoPerPacketState(t *testing.T) {
	tr := genTrace(t, 31)
	for _, tc := range evaluatorTargets {
		bound := uint64(1024 + 32*tc.scheme.NumBins())
		if n := uint64(tr.Len()); n < 8*bound {
			t.Fatalf("trace of %d packets is too short to tell O(bins) from O(packets) at %d bytes", n, bound)
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		ev, err := NewEvaluator(tr, tc.target, tc.scheme)
		runtime.ReadMemStats(&m1)
		if err != nil {
			t.Fatal(err)
		}
		if got := m1.TotalAlloc - m0.TotalAlloc; !raceEnabled && got > bound {
			t.Errorf("target %v: NewEvaluator allocated %d bytes over %d packets, want ≤ %d", tc.target, got, tr.Len(), bound)
		}
		if _, err := ev.ScoreCounts(ev.PopulationProportions()); err != nil {
			t.Fatal(err)
		}
		if ev.cells != nil {
			t.Errorf("target %v: ScoreCounts built the per-packet index", tc.target)
		}
	}
}

// TestFirstScorersBuildIndexOnce races the first NewScorer calls of one
// evaluator: every scorer must read the same fully built table, and the
// table must be allocated once (run under -race, a second build is also
// a reported write/read race on cells).
func TestFirstScorersBuildIndexOnce(t *testing.T) {
	tr := genTrace(t, 32)
	for _, tc := range evaluatorTargets {
		ev, err := NewEvaluator(tr, tc.target, tc.scheme)
		if err != nil {
			t.Fatal(err)
		}
		const workers = 8
		tables := make([]*uint8, workers)
		var start, done sync.WaitGroup
		start.Add(1)
		done.Add(workers)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for w := 0; w < workers; w++ {
			go func() {
				defer done.Done()
				start.Wait()
				sc := ev.NewScorer()
				sc.Visit(tr.Len() - 1)
				tables[w] = &sc.t.cells[0]
			}()
		}
		start.Done()
		done.Wait()
		runtime.ReadMemStats(&m1)
		for w, p := range tables {
			if p != tables[0] {
				t.Fatalf("target %v: scorer %d reads a different table than scorer 0", tc.target, w)
			}
		}
		if len(ev.cells) != tr.Len() {
			t.Fatalf("target %v: table holds %d packets, want %d", tc.target, len(ev.cells), tr.Len())
		}
		if got, n := m1.TotalAlloc-m0.TotalAlloc, uint64(tr.Len()); !raceEnabled && got >= 2*n {
			t.Errorf("target %v: first scorers allocated %d bytes for a %d-packet table; built more than once", tc.target, got, n)
		}
	}
}
