package pipeline

import (
	"math"
	"testing"
	"time"

	"netsample/internal/collect"
	"netsample/internal/metrics"
	"netsample/internal/online"
	"netsample/internal/traffgen"
)

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
		snap  collect.Snapshot
		wantK int
	}{
		{"drops over budget coarsen", 8,
			collect.Snapshot{Offered: 100, Dropped: 20, SizeReport: rep(0.01)}, 16},
		{"drops within budget do not coarsen", 8,
			collect.Snapshot{Offered: 100, Dropped: 5, SizeReport: rep(0.15)}, 8},
		{"phi over target refines", 8,
			collect.Snapshot{Offered: 100, SizeReport: rep(0.5)}, 4},
		{"worst report governs", 8,
			collect.Snapshot{Offered: 100, SizeReport: rep(0.01), IatReport: rep(0.5)}, 4},
		{"comfortable phi coarsens", 8,
			collect.Snapshot{Offered: 100, SizeReport: rep(0.05)}, 16},
		{"comfortable phi with drops holds", 8,
			collect.Snapshot{Offered: 100, Dropped: 1, SizeReport: rep(0.05)}, 8},
		{"middling phi holds", 8,
			collect.Snapshot{Offered: 100, SizeReport: rep(0.15)}, 8},
		{"unscored window holds", 8, collect.Snapshot{Offered: 100}, 8},
		{"refine clamps at MinK", 2,
			collect.Snapshot{Offered: 100, SizeReport: rep(0.5)}, 2},
		{"coarsen clamps at MaxK", 64,
			collect.Snapshot{Offered: 100, Dropped: 50}, 64},
	}
	for _, tc := range cases {
		d := a.Decide(tc.prevK, &Snapshot{Snapshot: tc.snap})
		if d.K != tc.wantK {
			t.Errorf("%s: Decide(k=%d) = %d, want %d", tc.name, tc.prevK, d.K, tc.wantK)
		}
		if d.PrevK != tc.prevK {
			t.Errorf("%s: PrevK = %d, want %d", tc.name, d.PrevK, tc.prevK)
		}
	}
	// Zero drop budget: any drop coarsens.
	strict := &AdaptiveConfig{MinK: 1, MaxK: 64, StartK: 8, TargetPhi: 0.2}
	if d := strict.Decide(8, &Snapshot{Snapshot: collect.Snapshot{Offered: 100, Dropped: 1}}); d.K != 16 {
		t.Errorf("zero budget with one drop: k = %d, want 16", d.K)
	}
	// Doubling saturates instead of wrapping: no ceiling is put on MaxK,
	// and past MaxInt/2 a wrapped 2k is negative, which the MinK clamp
	// turns into the finest granularity — the opposite of coarsening.
	wide := &AdaptiveConfig{MinK: 1, MaxK: math.MaxInt, StartK: 8, TargetPhi: 0.2}
	for _, snap := range []Snapshot{
		{Snapshot: collect.Snapshot{Offered: 100, Dropped: 1}},
		{Snapshot: collect.Snapshot{Offered: 100, SizeReport: rep(0.05)}},
	} {
		if d := wide.Decide(math.MaxInt/2+1, &snap); d.K != math.MaxInt {
			t.Errorf("coarsen past MaxInt/2 (%+v): k = %d, want MaxInt", snap, d.K)
		}
	}
}

// TestCensusNeverRefines runs the adaptive-ddos configuration: the
// 20-minute ddos preset, bounds 1..4096, target 0.25, 10 s windows,
// starting at k = 50 as the benchmark does and at k = 1, a census from
// the first window. A pipeline window drops nothing, so a window sampled
// at k = 1 is a census of its parent and scores φ ≈ 0, and the
// controller must coarsen: no decision taken at k = 1 may keep k = 1.
func TestCensusNeverRefines(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a 20-minute trace")
	}
	sc, err := traffgen.PresetScenario("ddos", 1, 20*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := traffgen.GenerateScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	censuses := 0
	for _, startK := range []int{50, 1} {
		p, err := New(Config{
			Shards:   1,
			WindowUS: 10_000_000,
			Adaptive: &AdaptiveConfig{MinK: 1, MaxK: 4096, StartK: startK, TargetPhi: 0.25},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Run(tr.Replay()); err != nil {
			t.Fatal(err)
		}
		ds := p.Decisions()
		if len(ds) < 100 {
			t.Fatalf("start k %d: %d decisions over 20 minutes of 10 s windows", startK, len(ds))
		}
		for _, d := range ds {
			if d.PrevK != 1 {
				continue
			}
			censuses++
			if d.K == 1 {
				t.Errorf("start k %d, window %d: a census (phi %g) stayed at k = 1", startK, d.Window, d.Phi)
			}
		}
	}
	if censuses == 0 {
		t.Error("no window ran at k = 1")
	}
}
