package main

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"netsample/internal/bins"
	"netsample/internal/core"
	"netsample/internal/dist"
	"netsample/internal/pipeline"
	"netsample/internal/traffgen"
)

// smallWorkload is a two-minute version of backbone-k50 with enough
// windows to exercise the matcher and the store.
func smallWorkload() workload {
	return workload{
		Name: "test-small", Why: "self-test fixture",
		Duration: 2 * time.Minute, K: 10, Shards: 1, Window: 10 * time.Second,
	}
}

// openSmall generates w's trace and opens it for streaming in a temp
// dir the test owns.
func openSmall(t *testing.T, w workload) *streamEnv {
	t.Helper()
	in, err := w.generate(7)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := in.openStream(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := in.close(); err != nil {
			t.Error(err)
		}
	})
	return newStreamEnv(w, in, dir)
}

// TestSerialReferenceAgreesWithBatchSampler holds the harness's own
// model of systematic sampling to the batch evaluator's sampler on the
// repository's small trace.
func TestSerialReferenceAgreesWithBatchSampler(t *testing.T) {
	tr, err := traffgen.Generate(traffgen.SmallTrace(42))
	if err != nil {
		t.Fatal(err)
	}
	scheme := bins.PacketSize()
	for _, k := range []int{1, 7, 50} {
		idx, err := core.SystematicCount{K: k}.Select(tr, dist.NewRNG(1))
		if err != nil {
			t.Fatal(err)
		}
		want := make([]uint64, scheme.NumBins())
		for _, i := range idx {
			want[scheme.Index(float64(tr.Packets[i].Size))]++
		}
		ref := serialReference(tr, k)
		if ref.Offered != uint64(tr.Len()) || ref.Selected != uint64(len(idx)) {
			t.Errorf("k=%d: reference offered/selected %d/%d, batch sampler %d/%d",
				k, ref.Offered, ref.Selected, tr.Len(), len(idx))
		}
		for b := range want {
			if ref.SizeCounts[b] != want[b] {
				t.Errorf("k=%d: size bin %d: reference %d, batch sampler %d", k, b, ref.SizeCounts[b], want[b])
			}
		}
	}
}

// TestVerifiedLapPassesAndCatchesDamage runs the fully verified lap on
// a clean system, then shows the checker turning a lost live frame and
// a flipped stored byte into failed operations.
func TestVerifiedLapPassesAndCatchesDamage(t *testing.T) {
	w := smallWorkload()
	env := openSmall(t, w)

	clean, err := env.runLap(nil, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if failed, why := checkVerifiedLap(w, env.in, clean); failed != 0 {
		t.Fatalf("clean lap failed %d checks: %v", failed, why)
	}
	if len(clean.Windows) != 12 || len(clean.Live) != 12 || len(clean.Replayed) != 12 {
		t.Fatalf("windows/live/replayed = %d/%d/%d, want 12 each", len(clean.Windows), len(clean.Live), len(clean.Replayed))
	}

	// A measured lap of the same input is bit-identical.
	again, err := env.runLap(nil, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if failed, why := checkMeasuredLap(env.in, clean, again); failed != 0 {
		t.Errorf("repeat lap failed %d checks: %v", failed, why)
	}

	// Lose one live frame: the replay no longer matches the export.
	lost := *clean
	lost.Live = append(append([][]byte(nil), clean.Live[:5]...), clean.Live[6:]...)
	if failed, _ := checkVerifiedLap(w, env.in, &lost); failed == 0 {
		t.Error("checker accepted a lap with a live frame missing")
	}

	// Flip one stored byte between Close and the cold query.
	env.afterClose = func(dir string) {
		segs, err := filepath.Glob(filepath.Join(dir, "seg-*.nss"))
		if err != nil || len(segs) == 0 {
			t.Fatalf("no segment files in %s: %v", dir, err)
		}
		data, err := os.ReadFile(segs[0])
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0x40
		if err := os.WriteFile(segs[0], data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	damaged, err := env.runLap(nil, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	env.afterClose = nil
	if failed, why := checkVerifiedLap(w, env.in, damaged); failed == 0 {
		t.Error("checker accepted a store with a flipped byte")
	} else {
		t.Logf("flipped byte reported as: %v", why)
	}
	if failed, _ := checkMeasuredLap(env.in, clean, damaged); failed == 0 {
		t.Error("measured-lap check accepted a store with a flipped byte")
	}

	// A window that dropped packets is a failed operation too.
	dropped := *clean
	dropped.Windows = append([]windowInfo(nil), clean.Windows...)
	dropped.Windows[3].Dropped = 5
	dropped.Windows[3].Processed -= 5
	if failed, _ := checkConservation(&dropped, env.in.ref.Len()); failed != 1 {
		t.Errorf("a window with drops failed %d checks, want 1", failed)
	}
}

// TestAdaptiveLapChecks runs the adaptive checks of the verified lap:
// every window's k inside the bounds, one decision per non-final
// window.
func TestAdaptiveLapChecks(t *testing.T) {
	w := smallWorkload()
	w.K = 0
	w.Adaptive = &pipeline.AdaptiveConfig{MinK: 1, MaxK: 4096, StartK: 50, TargetPhi: 0.25}
	env := openSmall(t, w)
	lap, err := env.runLap(nil, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if failed, why := checkVerifiedLap(w, env.in, lap); failed != 0 {
		t.Fatalf("adaptive lap failed %d checks: %v", failed, why)
	}
	if len(lap.Decisions) != len(lap.Windows)-1 {
		t.Errorf("%d decisions for %d windows", len(lap.Decisions), len(lap.Windows))
	}
	bad := *lap
	bad.Windows = append([]windowInfo(nil), lap.Windows...)
	bad.Windows[2].K = 8192
	if failed, _ := checkVerifiedLap(w, env.in, &bad); failed == 0 {
		t.Error("checker accepted k outside [MinK, MaxK]")
	}
}

// TestMatchCutsAssignsOneBatchPerWindow checks the cut-latency matcher
// on hand-made input and on a real lap: every non-final window gets
// exactly one hand-out batch — the first one that reaches its end.
func TestMatchCutsAssignsOneBatchPerWindow(t *testing.T) {
	lastUS := []int64{90, 180, 270, 360, 450}
	got := matchCuts(lastUS, []int64{100, 200, 200, 450, 451})
	want := []int{1, 2, 2, 4, -1}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("window %d matched batch %d, want %d", i, got[i], want[i])
		}
	}

	env := openSmall(t, smallWorkload())
	lap, err := env.runLap(nil, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	var ends []int64
	for _, wi := range lap.Windows {
		if !wi.Final {
			ends = append(ends, wi.WindowEndUS)
		}
	}
	if len(ends) != len(lap.Windows)-1 || len(lap.CutNS) != len(ends) {
		t.Fatalf("%d windows, %d non-final, %d cut latencies", len(lap.Windows), len(ends), len(lap.CutNS))
	}
	batches := env.src.lastUS
	for i, b := range matchCuts(batches, ends) {
		if b < 0 {
			t.Fatalf("window %d: no batch reaches its end", i)
		}
		if batches[b] < ends[i] || (b > 0 && batches[b-1] >= ends[i]) {
			t.Errorf("window %d (end %d): batch %d is not the first to reach it", i, ends[i], b)
		}
	}
	for i, ns := range lap.CutNS {
		if ns <= 0 {
			t.Errorf("window %d: cut latency %d ns", i, ns)
		}
	}
}
