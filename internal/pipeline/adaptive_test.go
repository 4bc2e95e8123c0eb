package pipeline

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"netsample/internal/metrics"
	"netsample/internal/online"
	"netsample/internal/trace"
	"netsample/internal/traffgen"
)

// scenarioTrace generates a preset scenario trace for adaptive tests.
func scenarioTrace(t testing.TB, name string, seed uint64, dur time.Duration) *trace.Trace {
	t.Helper()
	s, err := traffgen.PresetScenario(name, seed, dur)
	if err != nil {
		t.Fatalf("preset: %v", err)
	}
	tr, err := traffgen.GenerateScenario(s)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	return tr
}

func TestAdaptiveConfigValidation(t *testing.T) {
	valid := &AdaptiveConfig{MinK: 1, MaxK: 64, StartK: 8, TargetPhi: 0.25}
	base := func(a *AdaptiveConfig) Config {
		return Config{Shards: 1, WindowUS: 1_000_000, Adaptive: a}
	}
	if _, err := New(base(valid)); err != nil {
		t.Fatalf("valid adaptive config rejected: %v", err)
	}
	bad := []*AdaptiveConfig{
		{MinK: 0, MaxK: 64, StartK: 8, TargetPhi: 0.25},
		{MinK: 64, MaxK: 8, StartK: 64, TargetPhi: 0.25},
		{MinK: 1, MaxK: 64, StartK: 65, TargetPhi: 0.25},
		{MinK: 2, MaxK: 64, StartK: 1, TargetPhi: 0.25},
		{MinK: 1, MaxK: 64, StartK: 8, TargetPhi: 0},
		{MinK: 1, MaxK: 64, StartK: 8, TargetPhi: 0.25, DropBudget: 1},
		{MinK: 1, MaxK: 64, StartK: 8, TargetPhi: 0.25, DropBudget: -0.1},
	}
	for i, a := range bad {
		if _, err := New(base(a)); err == nil {
			t.Errorf("bad adaptive config %d accepted", i)
		}
	}
	// Adaptive without windows has no barrier to decide on.
	cfg := base(valid)
	cfg.WindowUS = 0
	if _, err := New(cfg); err == nil {
		t.Error("adaptive config without WindowUS accepted")
	}
	// Adaptive replaces NewSampler; setting both is ambiguous.
	cfg = base(valid)
	cfg.NewSampler = func(int) (online.Sampler, error) { return online.NewSystematic(50, 0) }
	if _, err := New(cfg); err == nil {
		t.Error("Adaptive together with NewSampler accepted")
	}
}

func TestAdaptiveDecide(t *testing.T) {
	a := &AdaptiveConfig{MinK: 2, MaxK: 64, StartK: 8, TargetPhi: 0.2, DropBudget: 0.1}
	rep := func(phi float64) *metrics.Report { return &metrics.Report{Phi: phi} }
	cases := []struct {
		name  string
		prevK int
		snap  Snapshot
		wantK int
	}{
		{"drops over budget coarsen", 8,
			Snapshot{Offered: 100, Dropped: 20, SizeReport: rep(0.01)}, 16},
		{"drops within budget do not coarsen", 8,
			Snapshot{Offered: 100, Dropped: 5, SizeReport: rep(0.15)}, 8},
		{"phi over target refines", 8,
			Snapshot{Offered: 100, SizeReport: rep(0.5)}, 4},
		{"worst report governs", 8,
			Snapshot{Offered: 100, SizeReport: rep(0.01), IatReport: rep(0.5)}, 4},
		{"comfortable phi coarsens", 8,
			Snapshot{Offered: 100, SizeReport: rep(0.05)}, 16},
		{"comfortable phi with drops holds", 8,
			Snapshot{Offered: 100, Dropped: 1, SizeReport: rep(0.05)}, 8},
		{"middling phi holds", 8,
			Snapshot{Offered: 100, SizeReport: rep(0.15)}, 8},
		{"unscored window holds", 8, Snapshot{Offered: 100}, 8},
		{"refine clamps at MinK", 2,
			Snapshot{Offered: 100, SizeReport: rep(0.5)}, 2},
		{"coarsen clamps at MaxK", 64,
			Snapshot{Offered: 100, Dropped: 50}, 64},
	}
	for _, tc := range cases {
		d := a.Decide(tc.prevK, &tc.snap)
		if d.K != tc.wantK {
			t.Errorf("%s: Decide(k=%d) = %d, want %d", tc.name, tc.prevK, d.K, tc.wantK)
		}
		if d.PrevK != tc.prevK {
			t.Errorf("%s: PrevK = %d, want %d", tc.name, d.PrevK, tc.prevK)
		}
	}
	// Zero drop budget: any drop coarsens.
	strict := &AdaptiveConfig{MinK: 1, MaxK: 64, StartK: 8, TargetPhi: 0.2}
	if d := strict.Decide(8, &Snapshot{Offered: 100, Dropped: 1}); d.K != 16 {
		t.Errorf("zero budget with one drop: k = %d, want 16", d.K)
	}
	// Doubling saturates instead of wrapping: no ceiling is put on MaxK,
	// and past MaxInt/2 a wrapped 2k is negative, which the MinK clamp
	// turns into the finest granularity — the opposite of coarsening.
	wide := &AdaptiveConfig{MinK: 1, MaxK: math.MaxInt, StartK: 8, TargetPhi: 0.2}
	for _, snap := range []Snapshot{
		{Offered: 100, Dropped: 1},
		{Offered: 100, SizeReport: rep(0.05)},
	} {
		if d := wide.Decide(math.MaxInt/2+1, &snap); d.K != math.MaxInt {
			t.Errorf("coarsen past MaxInt/2 (%+v): k = %d, want MaxInt", snap, d.K)
		}
	}
}

// snapProj is the topology-invariant projection of a Snapshot: every
// field that must be bit-identical for any shard count. (Shards and
// DroppedByShard describe the topology itself.)
type snapProj struct {
	seq                uint64
	start, end         int64
	final              bool
	k                  int
	offered, processed uint64
	selected, dropped  uint64
	sizeCounts         string
	iatCounts          string
	sizeRep, iatRep    string
	flows              string
	activeFlows        int
	topk               string
}

func projectSnap(s *Snapshot) snapProj {
	p := snapProj{
		seq: s.Seq, start: s.WindowStartUS, end: s.WindowEndUS,
		final: s.Final, k: s.K,
		offered: s.Offered, processed: s.Processed,
		selected: s.Selected, dropped: s.Dropped,
		sizeCounts:  fmt.Sprint(s.SizeCounts),
		iatCounts:   fmt.Sprint(s.IatCounts),
		flows:       fmt.Sprint(s.Flows),
		activeFlows: s.ActiveFlows,
		topk:        fmt.Sprint(s.TopK),
	}
	if s.SizeReport != nil {
		p.sizeRep = fmt.Sprint(reportBits(*s.SizeReport))
	}
	if s.IatReport != nil {
		p.iatRep = fmt.Sprint(reportBits(*s.IatReport))
	}
	return p
}

func projectSnaps(snaps []*Snapshot) []snapProj {
	projs := make([]snapProj, len(snaps))
	for i, s := range snaps {
		projs[i] = projectSnap(s)
	}
	return projs
}

// assertTopologyInvariant is the one topology table both selection
// modes are held to: it takes the 1-shard run as the reference and
// requires every other shard count — and a repeat of the reference, for
// run-to-run reproducibility — to publish the same snapshot projections
// and take the same decisions. It returns the reference run.
func assertTopologyInvariant(t *testing.T, run func(shards int) ([]snapProj, []AdaptiveDecision)) ([]snapProj, []AdaptiveDecision) {
	t.Helper()
	refSnaps, refDecs := run(1)
	for _, shards := range []int{1, 3, 2, 4, 8} {
		snaps, decs := run(shards)
		if !reflect.DeepEqual(snaps, refSnaps) {
			for i := range snaps {
				if i < len(refSnaps) && snaps[i] != refSnaps[i] {
					t.Fatalf("shards=%d: window %d diverged:\n got %+v\nwant %+v",
						shards, i, snaps[i], refSnaps[i])
				}
			}
			t.Fatalf("shards=%d: snapshot count %d vs %d", shards, len(snaps), len(refSnaps))
		}
		if !reflect.DeepEqual(decs, refDecs) {
			t.Fatalf("shards=%d: decision sequence diverged", shards)
		}
	}
	return refSnaps, refDecs
}

func runAdaptive(t *testing.T, tr *trace.Trace, shards int) ([]snapProj, []AdaptiveDecision) {
	t.Helper()
	sizeEval, iatEval := evaluators(t, tr)
	p, err := New(Config{
		Shards:   shards,
		WindowUS: 5_000_000,
		SizeEval: sizeEval,
		IatEval:  iatEval,
		// Large sketch capacity keeps every shard's Space-Saving counts
		// exact (capacity >= distinct selected flows per window), which
		// makes the merged TopK provably topology-invariant.
		TopKCapacity: 16384,
		Adaptive: &AdaptiveConfig{
			MinK: 4, MaxK: 256, StartK: 16, TargetPhi: 0.2,
		},
	})
	if err != nil {
		t.Fatalf("New(shards=%d): %v", shards, err)
	}
	if err := p.Run(tr.Replay()); err != nil {
		t.Fatalf("Run(shards=%d): %v", shards, err)
	}
	return projectSnaps(p.Snapshots()), p.Decisions()
}

// TestAdaptiveDeterminismAcrossTopologies pins the acceptance
// criterion: an adaptive run is bit-identical — every snapshot field
// including the per-window k, and the full decision sequence — for any
// shard count at the same seed. The DDoS scenario drives
// the controller through both coarse and fine regimes.
func TestAdaptiveDeterminismAcrossTopologies(t *testing.T) {
	tr := scenarioTrace(t, "ddos", 99, time.Minute)
	refSnaps, refDecs := assertTopologyInvariant(t, func(shards int) ([]snapProj, []AdaptiveDecision) {
		return runAdaptive(t, tr, shards)
	})
	if len(refSnaps) < 8 {
		t.Fatalf("reference run produced %d windows, want >= 8", len(refSnaps))
	}
	if len(refDecs) != len(refSnaps)-1 {
		t.Fatalf("%d decisions for %d windows, want one per non-final barrier",
			len(refDecs), len(refSnaps))
	}
	// The controller must actually steer: a run whose k never moves
	// would make this determinism test vacuous.
	kseen := map[int]bool{}
	for _, s := range refSnaps {
		kseen[s.k] = true
	}
	if len(kseen) < 2 {
		t.Fatalf("k never moved (always %v); scenario fails to exercise the loop", refSnaps[0].k)
	}
}

// TestAdaptiveKStaysBounded is the controller property test at pipeline
// level: across scenarios and seeds, k never leaves [MinK, MaxK] and
// the decision sequence is a pure function of the seed and trace.
func TestAdaptiveKStaysBounded(t *testing.T) {
	for _, name := range []string{"flashcrowd", "portscan"} {
		for seed := uint64(1); seed <= 3; seed++ {
			tr := scenarioTrace(t, name, seed, 30*time.Second)
			run := func() []AdaptiveDecision {
				sizeEval, iatEval := evaluators(t, tr)
				p, err := New(Config{
					Shards:   2,
					WindowUS: 3_000_000,
					SizeEval: sizeEval,
					IatEval:  iatEval,
					Adaptive: &AdaptiveConfig{MinK: 2, MaxK: 32, StartK: 8, TargetPhi: 0.15},
				})
				if err != nil {
					t.Fatal(err)
				}
				if err := p.Run(tr.Replay()); err != nil {
					t.Fatal(err)
				}
				for _, s := range p.Snapshots() {
					if s.K < 2 || s.K > 32 {
						t.Fatalf("%s seed %d: window %d ran at k=%d outside [2, 32]", name, seed, s.Seq, s.K)
					}
				}
				return p.Decisions()
			}
			a, b := run(), run()
			if len(a) == 0 {
				t.Fatalf("%s seed %d: no decisions recorded", name, seed)
			}
			for _, d := range a {
				if d.K < 2 || d.K > 32 {
					t.Fatalf("%s seed %d: decision chose k=%d outside [2, 32]", name, seed, d.K)
				}
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("%s seed %d: decisions differ between identical runs", name, seed)
			}
		}
	}
}
