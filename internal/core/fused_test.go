package core

import (
	"errors"
	"fmt"
	"sort"
	"testing"

	"netsample/internal/bins"
	"netsample/internal/dist"
)

func TestSelectEachMatchesSelect(t *testing.T) {
	tr := genTrace(t, 42)
	st, err := NewSystematicTimer(tr, 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := NewSystematicTimer(tr, 16, 500)
	if err != nil {
		t.Fatal(err)
	}
	sp.SelectPrevious = true
	ft, err := NewStratifiedTimer(tr, 16)
	if err != nil {
		t.Fatal(err)
	}
	samplers := []Sampler{
		SystematicCount{K: 16, Offset: 3},
		StratifiedCount{K: 16},
		SimpleRandom{K: 16},
		st,
		sp,
		ft,
	}
	for _, s := range samplers {
		for seed := uint64(1); seed <= 5; seed++ {
			want, err := s.Select(tr, dist.NewRNG(seed))
			if err != nil {
				t.Fatalf("%s Select: %v", s.Name(), err)
			}
			var got []int
			if err := s.SelectEach(tr, dist.NewRNG(seed), func(i int) {
				got = append(got, i)
			}); err != nil {
				t.Fatalf("%s SelectEach: %v", s.Name(), err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s seed %d: SelectEach yielded %d, Select %d",
					s.Name(), seed, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s seed %d: index %d: SelectEach %d, Select %d",
						s.Name(), seed, i, got[i], want[i])
				}
			}
			if !sort.IntsAreSorted(got) {
				t.Fatalf("%s seed %d: SelectEach order not ascending", s.Name(), seed)
			}
			for i := 1; i < len(got); i++ {
				if got[i] == got[i-1] {
					t.Fatalf("%s seed %d: duplicate index %d", s.Name(), seed, got[i])
				}
			}
		}
	}
}

// tally counts the observations xs into the scheme's bins, one Index
// call each: the reference the batch kernels are held to.
func tally(s *bins.Edged, xs []float64) []int64 {
	counts := make([]int64, s.NumBins())
	for _, x := range xs {
		counts[s.Index(x)]++
	}
	return counts
}

// TestFusedReportsBitIdentical pins the fused kernel to the legacy path:
// Score(indices), ScoreCounts over the tally of the observations, and
// Scorer fed by SelectEach must agree to the last bit for both targets
// and all five methods.
func TestFusedReportsBitIdentical(t *testing.T) {
	tr := genTrace(t, 7)
	st, err := NewSystematicTimer(tr, 32, 0)
	if err != nil {
		t.Fatal(err)
	}
	ft, err := NewStratifiedTimer(tr, 32)
	if err != nil {
		t.Fatal(err)
	}
	samplers := []Sampler{
		SystematicCount{K: 32},
		StratifiedCount{K: 32},
		SimpleRandom{K: 32},
		st,
		ft,
	}
	targets := []struct {
		target Target
		scheme *bins.Edged
	}{
		{TargetSize, bins.PacketSize()},
		{TargetInterarrival, bins.Interarrival()},
	}
	for _, tc := range targets {
		ev, err := NewEvaluator(tr, tc.target, tc.scheme)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range samplers {
			name := fmt.Sprintf("%s/%v", s.Name(), tc.target)
			idx, err := s.Select(tr, dist.NewRNG(99))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}

			legacy, err := ev.Score(idx)
			if err != nil {
				t.Fatalf("%s: Score: %v", name, err)
			}

			obs := Observations(tr, tc.target, idx)
			counts := make([]float64, tc.scheme.NumBins())
			for i, c := range tally(tc.scheme, obs) {
				counts[i] = float64(c)
			}
			fromCounts, err := ev.ScoreCounts(counts)
			if err != nil {
				t.Fatalf("%s: ScoreCounts: %v", name, err)
			}
			if fromCounts != legacy {
				t.Fatalf("%s: ScoreCounts report differs:\n%+v\n%+v", name, fromCounts, legacy)
			}

			sc := ev.NewScorer()
			sc.Reset()
			if err := s.SelectEach(tr, dist.NewRNG(99), sc.Visit); err != nil {
				t.Fatalf("%s: SelectEach: %v", name, err)
			}
			fused, err := sc.Report()
			if err != nil {
				t.Fatalf("%s: Scorer.Report: %v", name, err)
			}
			if fused != legacy {
				t.Fatalf("%s: fused report differs:\n%+v\n%+v", name, fused, legacy)
			}
			if sc.SampleSize() != len(idx) {
				t.Fatalf("%s: SampleSize %d, want %d", name, sc.SampleSize(), len(idx))
			}
		}
	}
}

// TestReplicateMatchesLegacySplit pins the fused Replicate fast path to
// the historical Split-per-replication semantics: each replication must
// see exactly the stream Select(e.pop, r.Split()) would have seen.
func TestReplicateMatchesLegacySplit(t *testing.T) {
	tr := genTrace(t, 11)
	ev, err := NewEvaluator(tr, TargetSize, bins.PacketSize())
	if err != nil {
		t.Fatal(err)
	}
	s := SimpleRandom{K: 20}
	const n = 8

	reps, err := Replicate(ev, s, n, dist.NewRNG(123))
	if err != nil {
		t.Fatal(err)
	}

	r := dist.NewRNG(123)
	for i := 0; i < n; i++ {
		idx, err := s.Select(tr, r.Split())
		if err != nil {
			t.Fatal(err)
		}
		rep, err := ev.Score(idx)
		if err != nil {
			t.Fatal(err)
		}
		if reps[i].SampleSize != len(idx) || reps[i].Report != rep {
			t.Fatalf("replication %d differs from legacy Split loop", i)
		}
	}
}

func TestNewEvaluatorRejectsTooManyBins(t *testing.T) {
	tr := genTrace(t, 3)
	edges := make([]float64, 300)
	for i := range edges {
		edges[i] = float64(i + 1)
	}
	wide, err := bins.NewEdged("wide", edges)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewEvaluator(tr, TargetSize, wide); !errors.Is(err, ErrTooManyBins) {
		t.Fatalf("301-bin scheme accepted: %v", err)
	}
}

// TestReplicationScoringZeroAllocs pins the fused replication loop at
// zero steady-state heap allocations: one Scorer plus one reseeded RNG
// score systematic replications with no garbage per iteration.
func TestReplicationScoringZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts perturbed under -race")
	}
	tr := genTrace(t, 5)
	ev, err := NewEvaluator(tr, TargetSize, bins.PacketSize())
	if err != nil {
		t.Fatal(err)
	}
	sc := ev.NewScorer()
	r := dist.NewRNG(0)
	visit := sc.Visit
	sampler := SystematicCount{K: 64}
	offset := 0
	allocs := testing.AllocsPerRun(50, func() {
		r.Reseed(uint64(9 + offset))
		sampler.Offset = offset % 64
		offset++
		sc.Reset()
		if err := sampler.SelectEach(tr, r, visit); err != nil {
			panic(err)
		}
		if _, err := sc.Report(); err != nil {
			panic(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("fused systematic replication scoring: %v allocs/op, want 0", allocs)
	}
}

// TestReplicationLoopsAllocsPerCall pins the replication entry points'
// allocations per call: none per replication (n = 1 and n = 33 cost the
// same), and at n = 5 no more than one scorer loop over a pooled scorer
// costs — the result slice, plus the child RNG where replications draw
// randomness. A sampler or closure boxed per replication shows here.
func TestReplicationLoopsAllocsPerCall(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts perturbed under -race")
	}
	tr := genTrace(t, 6)
	ev, err := NewEvaluator(tr, TargetSize, bins.PacketSize())
	if err != nil {
		t.Fatal(err)
	}
	cat, err := NewCategoricalEvaluator(tr, PortCategorizer{}, 0.0005)
	if err != nil {
		t.Fatal(err)
	}
	r := dist.NewRNG(3)
	loops := []struct {
		name string
		max  float64 // at n = 5
		run  func(n int) error
	}{
		{"Replicate", 3, func(n int) error {
			_, err := Replicate(ev, StratifiedCount{K: 64}, n, r)
			return err
		}},
		{"ReplicateCategorical", 3, func(n int) error {
			_, err := ReplicateCategorical(cat, StratifiedCount{K: 64}, n, r)
			return err
		}},
		{"SystematicOffsets", 1, func(n int) error {
			_, err := SystematicOffsets(ev, 64, n, nil)
			return err
		}},
	}
	for _, l := range loops {
		allocs := func(n int) float64 {
			return testing.AllocsPerRun(20, func() {
				if err := l.run(n); err != nil {
					panic(err)
				}
			})
		}
		one, five, many := allocs(1), allocs(5), allocs(33)
		if one != many {
			t.Errorf("%s allocates per replication: %v allocs for 1, %v for 33", l.name, one, many)
		}
		if five > l.max {
			t.Errorf("%s: %v allocs at n = 5, want ≤ %v", l.name, five, l.max)
		}
		t.Logf("%s: %v allocs at n = 1, %v at 5, %v at 33", l.name, one, five, many)
	}
}

// TestScoreZeroAllocsWarm pins the compatibility Score wrapper at zero
// steady-state allocations once the evaluator's scorer pool is warm.
func TestScoreZeroAllocsWarm(t *testing.T) {
	tr := genTrace(t, 5)
	ev, err := NewEvaluator(tr, TargetSize, bins.PacketSize())
	if err != nil {
		t.Fatal(err)
	}
	idx, err := (SystematicCount{K: 64}).Select(tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ev.Score(idx); err != nil { // warm the pool
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := ev.Score(idx); err != nil {
			panic(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm Score: %v allocs/op, want 0", allocs)
	}
}

// TestScoreCountsLengthMismatch covers the defensive bin-count check.
func TestScoreCountsLengthMismatch(t *testing.T) {
	tr := genTrace(t, 5)
	ev, err := NewEvaluator(tr, TargetSize, bins.PacketSize())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ev.ScoreCounts(make([]float64, ev.NumBins()+1)); err == nil {
		t.Fatal("mismatched counts length accepted")
	}
	if _, err := ev.ScoreCounts(make([]float64, ev.NumBins())); err == nil {
		t.Fatal("all-zero counts (empty sample) accepted")
	}
}
