package core

import (
	"errors"
	"math"
	"runtime"
	"sync"
	"testing"

	"netsample/internal/bins"
	"netsample/internal/dist"
	"netsample/internal/fanout"
	"netsample/internal/metrics"
	"netsample/internal/trace"
	"netsample/internal/traffgen"
)

// genTrace returns a small calibrated synthetic trace for evaluator tests.
func genTrace(t *testing.T, seed uint64) *trace.Trace {
	t.Helper()
	tr, err := traffgen.Generate(traffgen.SmallTrace(seed))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestNewEvaluatorRejectsEmpty(t *testing.T) {
	if _, err := NewEvaluator(&trace.Trace{}, TargetSize, bins.PacketSize()); !errors.Is(err, ErrEmptyPopulation) {
		t.Fatal("empty population accepted")
	}
}

func TestNewEvaluatorRejectsDegenerateBins(t *testing.T) {
	// All packets size 40: the upper bins are empty.
	tr := uniformTrace(100, 400)
	for i := range tr.Packets {
		tr.Packets[i].Size = 40
	}
	if _, err := NewEvaluator(tr, TargetSize, bins.PacketSize()); !errors.Is(err, ErrDegenerate) {
		t.Fatalf("degenerate population accepted: %v", err)
	}
}

func TestPhiZeroForFullSample(t *testing.T) {
	tr := genTrace(t, 11)
	ev, err := NewEvaluator(tr, TargetSize, bins.PacketSize())
	if err != nil {
		t.Fatal(err)
	}
	all := make([]int, tr.Len())
	for i := range all {
		all[i] = i
	}
	phi, err := ev.Phi(all)
	if err != nil {
		t.Fatal(err)
	}
	if phi > 1e-12 {
		t.Fatalf("phi of full sample = %v, want 0", phi)
	}
}

func TestPhiZeroForFullSampleInterarrival(t *testing.T) {
	tr := genTrace(t, 12)
	ev, err := NewEvaluator(tr, TargetInterarrival, bins.Interarrival())
	if err != nil {
		t.Fatal(err)
	}
	all := make([]int, tr.Len())
	for i := range all {
		all[i] = i
	}
	phi, err := ev.Phi(all)
	if err != nil {
		t.Fatal(err)
	}
	if phi > 1e-12 {
		t.Fatalf("phi of full sample = %v, want 0", phi)
	}
}

func TestScoreEmptySample(t *testing.T) {
	tr := genTrace(t, 13)
	ev, err := NewEvaluator(tr, TargetSize, bins.PacketSize())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ev.Score(nil); err == nil {
		t.Fatal("empty sample accepted")
	}
}

func TestScoreReasonableSample(t *testing.T) {
	tr := genTrace(t, 14)
	ev, err := NewEvaluator(tr, TargetSize, bins.PacketSize())
	if err != nil {
		t.Fatal(err)
	}
	idx, err := SystematicCount{K: 50}.Select(tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ev.Score(idx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Phi < 0 || rep.Phi > 0.5 {
		t.Errorf("phi = %v, expected a small value for 1-in-50 systematic", rep.Phi)
	}
	if rep.Significance < 0 || rep.Significance > 1 {
		t.Errorf("significance = %v", rep.Significance)
	}
	if rep.Cost < 0 {
		t.Errorf("cost = %v", rep.Cost)
	}
	if rep.RelativeCost >= rep.Cost {
		t.Errorf("rcost %v should be below cost %v at fraction 1/50", rep.RelativeCost, rep.Cost)
	}
}

func TestPhiGrowsWithGranularity(t *testing.T) {
	// The paper's central single-method trend (Figures 6-7): coarser
	// sampling gives poorer snapshots. Averaged over offsets to damp
	// noise.
	tr := genTrace(t, 15)
	ev, err := NewEvaluator(tr, TargetSize, bins.PacketSize())
	if err != nil {
		t.Fatal(err)
	}
	r := dist.NewRNG(99)
	meanPhiAt := func(k int) float64 {
		reps, err := SystematicOffsets(ev, k, 5, r)
		if err != nil {
			t.Fatal(err)
		}
		return MeanPhi(reps)
	}
	fine := meanPhiAt(4)
	coarse := meanPhiAt(2048)
	if !(coarse > fine) {
		t.Fatalf("phi(2048)=%v not greater than phi(4)=%v", coarse, fine)
	}
}

func TestReplicateRandomMethodsVary(t *testing.T) {
	tr := genTrace(t, 16)
	ev, err := NewEvaluator(tr, TargetSize, bins.PacketSize())
	if err != nil {
		t.Fatal(err)
	}
	r := dist.NewRNG(5)
	reps, err := Replicate(ev, StratifiedCount{K: 256}, 5, r)
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 5 {
		t.Fatalf("replications = %d", len(reps))
	}
	distinct := false
	for i := 1; i < len(reps); i++ {
		if reps[i].Report.Phi != reps[0].Report.Phi {
			distinct = true
		}
	}
	if !distinct {
		t.Fatal("random replications all identical")
	}
}

func TestReplicatePropagatesError(t *testing.T) {
	tr := genTrace(t, 17)
	ev, err := NewEvaluator(tr, TargetSize, bins.PacketSize())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Replicate(ev, SystematicCount{K: 0}, 2, dist.NewRNG(1)); err == nil {
		t.Fatal("bad sampler accepted")
	}
}

func TestSystematicOffsetsDistinct(t *testing.T) {
	tr := genTrace(t, 18)
	ev, err := NewEvaluator(tr, TargetSize, bins.PacketSize())
	if err != nil {
		t.Fatal(err)
	}
	reps, err := SystematicOffsets(ev, 50, 10, dist.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 10 {
		t.Fatalf("replications = %d", len(reps))
	}
	// Offsets spread over [0,50): samples differ, so scores should not
	// be all identical.
	allSame := true
	for i := 1; i < len(reps); i++ {
		if reps[i].Report.Phi != reps[0].Report.Phi {
			allSame = false
		}
	}
	if allSame {
		t.Fatal("offset replications identical")
	}
	// Requesting more offsets than K clamps to K.
	reps, err = SystematicOffsets(ev, 3, 10, dist.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 3 {
		t.Fatalf("clamped replications = %d", len(reps))
	}
}

func TestPhiValuesAndMeanPhi(t *testing.T) {
	reps := []Replication{
		{Report: reportWithPhi(0.1)},
		{Report: reportWithPhi(0.3)},
	}
	vals := PhiValues(reps)
	if len(vals) != 2 || vals[0] != 0.1 || vals[1] != 0.3 {
		t.Fatalf("vals = %v", vals)
	}
	if m := MeanPhi(reps); math.Abs(m-0.2) > 1e-12 {
		t.Fatalf("mean = %v", m)
	}
	if MeanPhi(nil) != 0 {
		t.Fatal("mean of empty should be 0")
	}
}

func TestEvaluatorAccessors(t *testing.T) {
	tr := genTrace(t, 19)
	ev, err := NewEvaluator(tr, TargetInterarrival, bins.Interarrival())
	if err != nil {
		t.Fatal(err)
	}
	if ev.Population() != tr || ev.Target() != TargetInterarrival {
		t.Fatal("accessors wrong")
	}
	props := ev.PopulationProportions()
	var sum float64
	for _, p := range props {
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("proportions sum = %v", sum)
	}
	props[0] = 99
	if ev.PopulationProportions()[0] == 99 {
		t.Fatal("proportions alias internal state")
	}
}

func TestTimerWorseThanPacketForInterarrival(t *testing.T) {
	// The paper's headline: timer-driven methods skew the interarrival
	// distribution toward large values because they miss bursts.
	tr := genTrace(t, 20)
	ev, err := NewEvaluator(tr, TargetInterarrival, bins.Interarrival())
	if err != nil {
		t.Fatal(err)
	}
	r := dist.NewRNG(30)
	const k = 64
	packetReps, err := Replicate(ev, StratifiedCount{K: k}, 5, r)
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewSystematicTimer(tr, k, 0)
	if err != nil {
		t.Fatal(err)
	}
	timerReps, err := Replicate(ev, st, 1, r)
	if err != nil {
		t.Fatal(err)
	}
	if !(MeanPhi(timerReps) > MeanPhi(packetReps)) {
		t.Fatalf("timer phi %v not worse than packet phi %v",
			MeanPhi(timerReps), MeanPhi(packetReps))
	}
}

func reportWithPhi(phi float64) (r metrics.Report) {
	r.Phi = phi
	return
}

// TestBinIndexBatchMatchesScheme checks the batched bin-index kernel
// against per-value Edged.Index, and checks NewEvaluator's batched
// classification produces the bin-index table a direct per-packet loop
// would.
func TestBinIndexBatchMatchesScheme(t *testing.T) {
	tr := genTrace(t, 23)
	for _, target := range []Target{TargetSize, TargetInterarrival} {
		scheme := bins.PacketSize()
		if target == TargetInterarrival {
			scheme = bins.Interarrival()
		}
		ev, err := NewEvaluator(tr, target, scheme)
		if err != nil {
			t.Fatal(err)
		}
		// The batch kernel agrees with per-value Index on a mixed batch.
		xs := []float64{0, 39, 41, 180, 181, 799, 800, 1200, 3600, 1e7, math.NaN()}
		got := make([]uint8, len(xs))
		ev.BinIndexBatch(got, xs)
		for i, x := range xs {
			if want := uint8(scheme.Index(x)); got[i] != want {
				t.Fatalf("target %v: x=%v got=%d want=%d", target, x, got[i], want)
			}
		}
		// The per-packet table holds each packet's Index, and marks the
		// interarrival target's first packet as no observation.
		ev.NewScorer()
		if len(ev.cells) != tr.Len() {
			t.Fatalf("target %v: bin-index table of %d packets, want %d", target, len(ev.cells), tr.Len())
		}
		for i := range ev.cells {
			want := uint8(0xFF)
			switch {
			case target == TargetSize:
				want = uint8(scheme.Index(float64(tr.Packets[i].Size)))
			case i > 0:
				want = uint8(scheme.Index(float64(tr.Packets[i].Time - tr.Packets[i-1].Time)))
			}
			if ev.cells[i] != want {
				t.Fatalf("target %v: cells[%d] = %d, want %d", target, i, ev.cells[i], want)
			}
		}
	}
}

// TestPopulationCountsAnyGOMAXPROCS holds NewEvaluator's population
// counts — one worker's below fanout.MinPackets packets, GOMAXPROCS
// workers' from it — to a per-packet scheme.Index tally on both sides of
// the threshold, so the workers' ranges cover every observation once,
// the interarrival gap across each range edge included.
func TestPopulationCountsAnyGOMAXPROCS(t *testing.T) {
	hour, err := traffgen.Hour()
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 3} {
		runtime.GOMAXPROCS(procs)
		for _, n := range []int{fanout.MinPackets - 1, fanout.MinPackets, fanout.MinPackets + 1} {
			tr := &trace.Trace{Packets: hour.Packets[:n]}
			for _, tc := range evaluatorTargets {
				ev, err := NewEvaluator(tr, tc.target, tc.scheme)
				if err != nil {
					t.Fatal(err)
				}
				want := make([]float64, tc.scheme.NumBins())
				for i := firstObservation(ev.target); i < n; i++ {
					x := float64(tr.Packets[i].Size)
					if tc.target == TargetInterarrival {
						x = float64(tr.Packets[i].Time - tr.Packets[i-1].Time)
					}
					want[tc.scheme.Index(x)]++
				}
				if !floatsEqual(ev.popCounts, want) {
					t.Errorf("GOMAXPROCS %d, %d packets, target %v: counts %v, per-packet tally %v", procs, n, tc.target, ev.popCounts, want)
				}
			}
		}
	}
}

func floatsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		//nslint:allow floateq exact integer-valued counts, not computed quantities
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestEvaluatorConcurrentUse scores one evaluator from several
// goroutines at once: scorers borrowed from its free list must keep the
// reports equal to the serial ones (and the race detector quiet).
func TestEvaluatorConcurrentUse(t *testing.T) {
	tr := genTrace(t, 12)
	ev, err := NewEvaluator(tr, TargetSize, bins.PacketSize())
	if err != nil {
		t.Fatal(err)
	}
	idx, err := (SystematicCount{K: 32}).Select(tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ev.Score(idx)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if got, err := ev.Score(idx); err != nil || got != want {
					t.Errorf("concurrent Score differs: %+v %v", got, err)
				}
			}
		}()
	}
	wg.Wait()
}

// reportFloats lists a report's seven metrics for bit comparison.
func reportFloats(r metrics.Report) []float64 {
	return []float64{r.ChiSquare, r.Significance, r.Cost, r.RelativeCost, r.PaxsonX2, r.AvgNormDev, r.Phi}
}

// TestScoreParentMatchesEvaluator pins ScoreParent to the evaluator it
// replaces for a stream window: scored against integer parent counts
// that hit every bin, a sample's report is bit-identical to ScoreCounts
// on an evaluator built over that parent, on both targets.
func TestScoreParentMatchesEvaluator(t *testing.T) {
	tr := genTrace(t, 5)
	for _, target := range []Target{TargetSize, TargetInterarrival} {
		scheme := bins.PacketSize()
		if target == TargetInterarrival {
			scheme = bins.Interarrival()
		}
		ev, err := NewEvaluator(tr, target, scheme)
		if err != nil {
			t.Fatal(err)
		}
		parent := make([]uint64, ev.NumBins())
		for b, c := range ev.popCounts {
			parent[b] = uint64(c)
		}
		for _, k := range []int{1, 16, 1024} {
			sc := ev.NewScorer()
			if err := (SystematicCount{K: k}).SelectEach(tr, nil, sc.Visit); err != nil {
				t.Fatal(err)
			}
			counts := sc.Counts()
			sample := make([]uint64, len(counts))
			for b, c := range counts {
				sample[b] = uint64(c)
			}
			want, err := ev.ScoreCounts(counts)
			if err != nil {
				t.Fatal(err)
			}
			got, err := ScoreParent(sample, parent)
			if err != nil {
				t.Fatal(err)
			}
			if !sameBits(reportFloats(got), reportFloats(want)) {
				t.Errorf("%v k=%d: ScoreParent %+v, evaluator %+v", target, k, got, want)
			}
		}
	}
}

// TestScoreParentScoresHitBinsOnly checks that a bin the parent never
// hit drops out of the score, degrees of freedom included, and that a
// sample ScoreParent cannot score is refused.
func TestScoreParentScoresHitBinsOnly(t *testing.T) {
	got, err := ScoreParent([]uint64{2, 0, 3, 0}, []uint64{10, 0, 30, 0})
	if err != nil {
		t.Fatal(err)
	}
	want, err := ScoreParent([]uint64{2, 3}, []uint64{10, 30})
	if err != nil {
		t.Fatal(err)
	}
	if !sameBits(reportFloats(got), reportFloats(want)) {
		t.Errorf("with empty parent bins %+v, compacted %+v", got, want)
	}
	for name, c := range map[string][2][]uint64{
		"empty sample":          {{0, 0, 0}, {5, 6, 7}},
		"one parent bin":        {{3, 0, 0}, {9, 0, 0}},
		"sample outside parent": {{1, 1, 1}, {5, 0, 7}},
	} {
		if _, err := ScoreParent(c[0], c[1]); err == nil {
			t.Errorf("%s: scored", name)
		}
	}
	if raceEnabled {
		return
	}
	sample, parent := []uint64{4, 9, 1, 0, 2}, []uint64{40, 80, 20, 5, 30}
	if a := testing.AllocsPerRun(100, func() { _, _ = ScoreParent(sample, parent) }); a != 0 {
		t.Errorf("ScoreParent allocates %.0f times a call", a)
	}
}
