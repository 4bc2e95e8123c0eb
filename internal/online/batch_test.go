// The tests that hold internal/core's batch samplers against this
// package live outside it: core's timer methods are loops over
// online's, so an in-package test importing core would be a cycle.
package online_test

import (
	"math"
	"slices"
	"testing"
	"time"

	"netsample/internal/core"
	"netsample/internal/dist"
	"netsample/internal/online"
	"netsample/internal/trace"
	"netsample/internal/traffgen"
)

// offerAll runs a streaming sampler over a trace and collects selected
// indices.
func offerAll(s online.Sampler, tr *trace.Trace) []int {
	var out []int
	for i, p := range tr.Packets {
		if s.Offer(p.Time) {
			out = append(out, i)
		}
	}
	return out
}

// eachPopulation calls f with the generated hour and then with dur of
// every preset scenario, one trace live at a time.
func eachPopulation(t *testing.T, dur time.Duration, f func(name string, tr *trace.Trace)) {
	t.Helper()
	hour, err := traffgen.Hour()
	if err != nil {
		t.Fatal(err)
	}
	f("hour", hour)
	for _, name := range traffgen.ScenarioNames() {
		s, err := traffgen.PresetScenario(name, 7, dur)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := traffgen.GenerateScenario(s)
		if err != nil {
			t.Fatal(err)
		}
		f(name, tr)
	}
}

func period(t *testing.T, tr *trace.Trace, k float64) int64 {
	t.Helper()
	p, err := core.PeriodForGranularity(tr, k)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestStreamingSystematicMatchesBatch(t *testing.T) {
	tr, err := traffgen.Generate(traffgen.SmallTrace(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 2, 7, 50, 997} {
		for _, off := range []int{0, 1, k / 2, k - 1} {
			if off < 0 || off >= k {
				continue
			}
			batch, err := core.SystematicCount{K: k, Offset: off}.Select(tr, nil)
			if err != nil {
				t.Fatal(err)
			}
			s, err := online.NewSystematic(k, off)
			if err != nil {
				t.Fatal(err)
			}
			if stream := offerAll(s, tr); !slices.Equal(batch, stream) {
				t.Fatalf("k=%d off=%d: batch %d picks, stream %d picks", k, off, len(batch), len(stream))
			}
		}
	}
}

// TestStreamingSystematicTimerMatchesBatch and its stratified sibling
// pin what core's delegation gives by construction: for methods 4 and
// 5, Select is the streaming sampler offered the trace, index for index.
func TestStreamingSystematicTimerMatchesBatch(t *testing.T) {
	eachPopulation(t, 2*time.Minute, func(name string, tr *trace.Trace) {
		for _, k := range []float64{4, 50, 1024} {
			p := period(t, tr, k)
			for _, off := range []int64{0, p / 3} {
				batch, err := (core.SystematicTimer{PeriodUS: p, OffsetUS: off}).Select(tr, nil)
				if err != nil {
					t.Fatal(err)
				}
				s, err := online.NewSystematicTimer(p, off)
				if err != nil {
					t.Fatal(err)
				}
				if stream := offerAll(s, tr); !slices.Equal(batch, stream) {
					t.Fatalf("%s k=%v off=%d: batch %d vs stream %d picks", name, k, off, len(batch), len(stream))
				}
			}
		}
	})
}

func TestStreamingStratifiedTimerMatchesBatch(t *testing.T) {
	eachPopulation(t, 2*time.Minute, func(name string, tr *trace.Trace) {
		for _, k := range []float64{4, 50, 1024} {
			p := period(t, tr, k)
			for _, seed := range []uint64{7, 1993} {
				batch, err := (core.StratifiedTimer{PeriodUS: p}).Select(tr, dist.NewRNG(seed))
				if err != nil {
					t.Fatal(err)
				}
				s, err := online.NewStratifiedTimer(p, dist.NewRNG(seed))
				if err != nil {
					t.Fatal(err)
				}
				if stream := offerAll(s, tr); !slices.Equal(batch, stream) {
					t.Fatalf("%s k=%v seed=%d: batch %d vs stream %d picks", name, k, seed, len(batch), len(stream))
				}
			}
		}
	})
}

// TestStreamingStratifiedTimerBehaves pins method 5's design fraction:
// one selection per period of trace span, within 1 %, on benign and
// hostile traffic alike and in both planes. Only an expiry that passes
// with no arrival since the one before it is lost (they collapse); a
// rule that forgets an expiry nobody followed inside its own bucket
// falls 2–6 % short here. Ten minutes of a preset is a few hundred
// periods at k = 1024, the least a 1 % band can resolve.
func TestStreamingStratifiedTimerBehaves(t *testing.T) {
	eachPopulation(t, 10*time.Minute, func(name string, tr *trace.Trace) {
		span := tr.Packets[tr.Len()-1].Time - tr.Packets[0].Time
		for _, k := range []float64{50, 1024} {
			p := period(t, tr, k)
			want := float64(span) / float64(p)
			s, err := online.NewStratifiedTimer(p, dist.NewRNG(7))
			if err != nil {
				t.Fatal(err)
			}
			stream := offerAll(s, tr)
			batch, err := (core.StratifiedTimer{PeriodUS: p}).Select(tr, dist.NewRNG(7))
			if err != nil {
				t.Fatal(err)
			}
			for plane, idx := range map[string][]int{"stream": stream, "batch": batch} {
				if got := float64(len(idx)); math.Abs(got-want) > 0.01*want {
					t.Errorf("%s k=%v %s: %d selections, want %.1f ± 1 %%", name, k, plane, len(idx), want)
				}
				for i := 1; i < len(idx); i++ {
					if idx[i] <= idx[i-1] {
						t.Fatalf("%s k=%v %s: selections not strictly increasing at %d", name, k, plane, i)
					}
				}
			}
		}
	})
}
