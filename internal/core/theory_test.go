package core

import (
	"errors"
	"math"
	"testing"
	"time"

	"netsample/internal/stats"
	"netsample/internal/trace"
	"netsample/internal/traffgen"
)

func TestSystematicEfficiencyRandomOrder(t *testing.T) {
	// A realistic trace has near-randomly-ordered sizes at moderate
	// lags: the ratio should be near 1 — the §5 explanation for the
	// packet methods performing alike.
	tr, err := traffgen.Generate(traffgen.SmallTrace(70))
	if err != nil {
		t.Fatal(err)
	}
	ds, err := SystematicEfficiency(tr, TargetSize, 50)
	if err != nil {
		t.Fatal(err)
	}
	d := ds[0]
	if d.Ratio < 0.9 || d.Ratio > 1.1 {
		t.Errorf("within/population variance ratio = %v, want ≈1", d.Ratio)
	}
	if math.Abs(d.LagAutocorr) > 0.1 {
		t.Errorf("lag-50 autocorrelation = %v, want ≈0", d.LagAutocorr)
	}
}

func TestSystematicEfficiencyPeriodicPopulation(t *testing.T) {
	// A population with period exactly k: each systematic sample is
	// constant, so within-sample variance collapses and the diagnostic
	// flags systematic sampling as inefficient (ratio ≈ 0, lag
	// autocorrelation ≈ 1).
	tr := &trace.Trace{Start: time.Unix(0, 0)}
	const k = 10
	for i := 0; i < 5000; i++ {
		tr.Packets = append(tr.Packets, trace.Packet{
			Time: int64(i) * 400,
			Size: uint16(40 + 50*(i%k)),
		})
	}
	ds, err := SystematicEfficiency(tr, TargetSize, k)
	if err != nil {
		t.Fatal(err)
	}
	d := ds[0]
	if d.Ratio > 0.05 {
		t.Errorf("periodic ratio = %v, want ≈0", d.Ratio)
	}
	if d.LagAutocorr < 0.95 {
		t.Errorf("periodic lag autocorrelation = %v, want ≈1", d.LagAutocorr)
	}
}

func TestSystematicEfficiencyErrors(t *testing.T) {
	tr, err := traffgen.Generate(traffgen.SmallTrace(71))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SystematicEfficiency(tr, TargetSize, 0); !errors.Is(err, ErrBadGranularity) {
		t.Error("k=0 accepted")
	}
	tiny := &trace.Trace{Packets: tr.Packets[:5]}
	if _, err := SystematicEfficiency(tiny, TargetSize, 10); !errors.Is(err, ErrEmptyPopulation) {
		t.Error("tiny population accepted")
	}
}

// TestSystematicEfficiencyPhaseBufferReuse holds the phase buffer, sized
// for the largest k and reused by every smaller one, to a fresh slice per
// phase: a phase must not see a larger k's accumulators, and phases of
// unequal length (the observation count not a multiple of k) must each
// describe exactly their own observations.
func TestSystematicEfficiencyPhaseBufferReuse(t *testing.T) {
	tr, err := traffgen.Generate(traffgen.SmallTrace(72))
	if err != nil {
		t.Fatal(err)
	}
	for _, target := range []Target{TargetSize, TargetInterarrival} {
		var obs []float64
		for i := firstObservation(target); i < tr.Len(); i++ {
			obs = append(obs, observation(tr.Packets, target, i))
		}
		ks := []int{len(obs) / 3, 50, 7}
		ds, err := SystematicEfficiency(tr, target, ks...)
		if err != nil {
			t.Fatal(err)
		}
		for i, k := range ks {
			var sum float64
			for off := 0; off < k; off++ {
				var phase []float64
				for i := off; i < len(obs); i += k {
					phase = append(phase, obs[i])
				}
				s, err := stats.Describe(phase)
				if err != nil {
					t.Fatal(err)
				}
				sum += s.StdDev * s.StdDev
			}
			if want := sum / float64(k); math.Float64bits(ds[i].MeanWithinVariance) != math.Float64bits(want) {
				t.Errorf("%s k=%d: mean within-variance %v, want %v", target, k, ds[i].MeanWithinVariance, want)
			}
		}
	}
}
