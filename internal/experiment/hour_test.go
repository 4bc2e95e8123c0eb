package experiment

import (
	"math"
	"slices"
	"strings"
	"testing"

	"netsample/internal/core"
	"netsample/internal/metrics"
	"netsample/internal/online"
	"netsample/internal/pipeline"
	"netsample/internal/trace"
	"netsample/internal/traffgen"
)

// Hour-scale shape tests: the assertions EXPERIMENTS.md makes about the
// full calibrated population, run against the real hour trace. Skipped
// in -short mode; the trace is generated once per process and shared.

func hourTrace(t *testing.T) *trace.Trace {
	t.Helper()
	if testing.Short() {
		t.Skip("hour-scale shape tests skipped in -short mode")
	}
	tr, err := traffgen.Hour()
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestHourChiSquareAcceptanceMatchesPaper(t *testing.T) {
	tr := hourTrace(t)
	r, err := ChiSquareAcceptance(tr, core.TargetSize)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: "only two or three out of the fifty possible replications"
	// rejected at 0.05. Statistical expectation is 2.5; accept 0..7.
	if rejected := ints(t, r, "rejected")[0]; rejected > 7 {
		t.Errorf("size target: %d of 50 rejected, paper saw 2-3", rejected)
	}
	r2, err := ChiSquareAcceptance(tr, core.TargetInterarrival)
	if err != nil {
		t.Fatal(err)
	}
	if rejected := ints(t, r2, "rejected")[0]; rejected > 7 {
		t.Errorf("iat target: %d of 50 rejected", rejected)
	}
}

func TestHourFigure9TimerClassUniformlyWorse(t *testing.T) {
	tr := hourTrace(t)
	r, err := Figure9(tr)
	if err != nil {
		t.Fatal(err)
	}
	// At every granularity from 8 up, both timer methods must score
	// worse than every packet method — the paper's "uniformly worse".
	methods := methodColumns(t, r)
	for gi, k := range ints(t, r, "granularity") {
		if k < 8 {
			continue
		}
		var worstPacket, bestTimer float64
		bestTimer = math.Inf(1)
		for _, method := range methods {
			phi := floats(t, r, method)[gi]
			if strings.HasSuffix(method, "/timer") {
				if phi < bestTimer {
					bestTimer = phi
				}
			} else if phi > worstPacket {
				worstPacket = phi
			}
		}
		if !(bestTimer > worstPacket) {
			t.Errorf("k=%d: best timer %v not worse than worst packet %v",
				k, bestTimer, worstPacket)
		}
	}
}

func TestHourFigure7MonotoneTrend(t *testing.T) {
	tr := hourTrace(t)
	r, err := Figure7(tr)
	if err != nil {
		t.Fatal(err)
	}
	// Not strictly monotone (sampling noise) but the endpoints and the
	// broad trend must hold: last > 4x first, and at most two local
	// decreases larger than 30%.
	means := floats(t, r, "mean_phi")
	first, last := means[0], means[len(means)-1]
	if !(last > 4*first) {
		t.Errorf("phi trend too flat: %v → %v", first, last)
	}
	bigDrops := 0
	for i := 1; i < len(means); i++ {
		if means[i] < 0.7*means[i-1] {
			bigDrops++
		}
	}
	if bigDrops > 2 {
		t.Errorf("%d large reversals in the phi trend: %v", bigDrops, means)
	}
}

func TestHourFigure10ImprovesWithElapsedTime(t *testing.T) {
	tr := hourTrace(t)
	r, err := Figure10(tr)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"k16", "k256", "k4096"} {
		row := floats(t, r, k)
		if !(row[len(row)-1] < row[0]) {
			t.Errorf("k=%s: phi at 60 min (%v) not below 1 min (%v)",
				k[1:], row[len(row)-1], row[0])
		}
	}
}

func TestHourSampleSizesNearPaper(t *testing.T) {
	tr := hourTrace(t)
	r, err := SampleSizes(core.NewProfile(tr))
	if err != nil {
		t.Fatal(err)
	}
	// The synthetic population's parameters differ slightly from the
	// paper's, so its Cochran sizes land within ~35% of 1590/2066.
	n := ints(t, r, "n")
	if n[0] < 1000 || n[0] > 2500 {
		t.Errorf("size n = %d, paper 1590", n[0])
	}
	if n[2] < 1300 || n[2] > 2800 {
		t.Errorf("iat n = %d, paper 2066", n[2])
	}
}

// TestStreamWindowMatchesElapsedInterval holds the stream to the paper's
// batch method: window 1 of a systematic run with N-minute windows is
// the first N minutes, the interval Figures 10 and 11 score, so its
// reports must be bit for bit those of the batch selection at the same
// offset scored by an evaluator built over that interval. The stream
// opens its first window at the first packet and the figures theirs at
// time 0, so both run on the hour's first five minutes rebased to start
// at its first packet.
func TestStreamWindowMatchesElapsedInterval(t *testing.T) {
	hour := hourTrace(t)
	t0 := hour.Packets[0].Time
	head := hour.Window(t0, t0+5*60_000_000)
	tr := &trace.Trace{Start: hour.Start, ClockUS: hour.ClockUS, Packets: slices.Clone(head.Packets)}
	for i := range tr.Packets {
		tr.Packets[i].Time -= t0
	}
	const offset = 3
	for _, minutes := range []int64{1, 2, 4} {
		win := window(tr, minutes*60)
		for _, k := range []int{16, 256} {
			var first *pipeline.Snapshot
			var p *pipeline.Pipeline
			p, err := pipeline.New(pipeline.Config{
				Shards:     2,
				WindowUS:   minutes * 60_000_000,
				NewSampler: func(int) (online.Sampler, error) { return online.NewSystematic(k, offset) },
				OnSnapshot: func(s *pipeline.Snapshot) {
					if s.Seq == 1 {
						first = s
						p.Stop()
					}
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := p.Run(tr.Replay()); err != nil {
				t.Fatal(err)
			}
			if first == nil || first.Final || first.Offered != uint64(win.Len()) {
				t.Fatalf("%d min, k=%d: window 1 %+v, interval holds %d packets", minutes, k, first, win.Len())
			}
			for _, c := range []struct {
				target core.Target
				got    *metrics.Report
			}{{core.TargetSize, first.SizeReport}, {core.TargetInterarrival, first.IatReport}} {
				ev, err := newEvaluator(win, c.target)
				if err != nil {
					t.Fatal(err)
				}
				sc := ev.NewScorer()
				if err := (core.SystematicCount{K: k, Offset: offset}).SelectEach(win, nil, sc.Visit); err != nil {
					t.Fatal(err)
				}
				want, err := sc.Report()
				if err != nil {
					t.Fatal(err)
				}
				if c.got == nil || math.Float64bits(c.got.Phi) != math.Float64bits(want.Phi) || *c.got != want {
					t.Errorf("%d min, k=%d, %v: stream %+v, batch %+v", minutes, k, c.target, c.got, want)
				}
			}
		}
	}
}
