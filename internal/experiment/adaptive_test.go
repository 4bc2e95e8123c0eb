package experiment

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"netsample/internal/dist"
	"netsample/internal/packet"
	"netsample/internal/pipeline"
	"netsample/internal/trace"
)

func TestAdaptiveExperiment(t *testing.T) {
	r, err := Adaptive()
	if err != nil {
		t.Fatal(err)
	}
	configs := strs(t, r, "config")
	if len(configs) != 3 {
		t.Fatalf("rows = %d", len(configs))
	}
	// Each configuration's relative error (published in percent) and
	// mean k.
	type outcome struct{ relError, meanK float64 }
	byName := map[string]outcome{}
	errPct, meanK := floats(t, r, "error_pct"), floats(t, r, "mean_k")
	for i, c := range configs {
		byName[c] = outcome{errPct[i] / 100, meanK[i]}
	}
	un := byName["unsampled"]
	fx := byName["fixed-1-in-50"]
	ad := byName["adaptive"]
	// The unsampled node undercounts on the ramp; sampling fixes it.
	if un.relError > -0.1 {
		t.Errorf("unsampled error %v, expected a large undercount", un.relError)
	}
	if math.Abs(fx.relError) > 0.05 {
		t.Errorf("fixed-sampling error %v, want ≈0", fx.relError)
	}
	if math.Abs(ad.relError) > 0.08 {
		t.Errorf("adaptive error %v, want ≈0", ad.relError)
	}
	// Adaptive should spend a finer mean granularity than the fixed 50
	// while staying accurate — the point of the controller.
	if !(ad.meanK < fx.meanK) {
		t.Errorf("adaptive mean k %v not finer than fixed %v", ad.meanK, fx.meanK)
	}
	out := render(t, r)
	if !strings.Contains(out, "ext-adaptive") {
		t.Error("render missing id")
	}
}

// nodeTrace builds a packet stream with the given timestamps whose
// sizes cycle through the paper's three size bins, so any power-of-two
// stride samples the population's own size mix.
func nodeTrace(times []int64) *trace.Trace {
	tr := &trace.Trace{Packets: make([]trace.Packet, len(times))}
	for i, t := range times {
		tr.Packets[i] = trace.Packet{
			Time: t, Size: [...]uint16{40, 100, 552}[i%3], Protocol: packet.ProtoTCP,
			Src: packet.Addr{132, 249, 0, 1}, Dst: packet.Addr{18, 0, 0, 1},
		}
	}
	return tr
}

// burst appends n timestamps gapUS apart starting at fromUS.
func burst(times []int64, fromUS, gapUS int64, n int) []int64 {
	for i := 0; i < n; i++ {
		times = append(times, fromUS+int64(i)*gapUS)
	}
	return times
}

func TestAdaptiveNodeSilentEpochsDecideNothing(t *testing.T) {
	// 3 s at 2000 pps into a 200 pps processor, a lull of 2^40 µs (1.1
	// million epochs), then 2.5 s more starting 0.63 s into an epoch.
	// Only epochs that saw traffic decide: three before the lull (the
	// third closed by the first packet after it) and three after, the
	// fourth left open. A catch-up that ran the law once per elapsed
	// epoch would mint a million decisions, none with evidence.
	const lull = int64(1) << 40
	const resume = 3_000_000 + lull
	times := burst(nil, 0, 500, 6000)
	times = burst(times, resume, 500, 5000)
	ctl := pipeline.AdaptiveConfig{MinK: 1, MaxK: 1024, StartK: 1, TargetPhi: 0.15}
	node, decisions, err := AdaptiveNode(nodeTrace(times), 200, 16, ctl)
	if err != nil {
		t.Fatal(err)
	}
	if len(decisions) != 6 {
		t.Fatalf("%d decisions, want 6 (one per closed epoch that saw traffic)", len(decisions))
	}
	// Epochs are numbered on the virtual clock from the first packet.
	next := 1 + uint64(resume/adaptiveEpochUS)
	for i, want := range []uint64{1, 2, 3, next, next + 1, next + 2} {
		if decisions[i].Window != want {
			t.Errorf("decision %d closes epoch %d, want %d", i, decisions[i].Window, want)
		}
	}
	// The overload raised k before the lull and the lull did not undo it.
	if before, after := decisions[1].K, decisions[2].K; before < 4 || after < before {
		t.Fatalf("k %d before the lull, %d after it", before, after)
	}
	if node.K() != decisions[5].K {
		t.Fatalf("node runs k=%d, last decision chose %d", node.K(), decisions[5].K)
	}
	if node.SNMP.InPackets != uint64(len(times)) {
		t.Fatalf("SNMP counted %d of %d packets", node.SNMP.InPackets, len(times))
	}
}

func TestAdaptiveNodeBoundedAndDeterministic(t *testing.T) {
	// Under every clock pathology internal/online admits — duplicates,
	// backward steps, forward jumps — k stays in [MinK, MaxK], decisions
	// are bounded by the packets, and the run is a pure function of the
	// trace.
	const n = 5000
	ctl := pipeline.AdaptiveConfig{MinK: 2, MaxK: 64, StartK: 8, TargetPhi: 0.15}
	for seed := uint64(1); seed <= 10; seed++ {
		rng := dist.NewRNG(seed)
		times := make([]int64, n)
		var now int64
		for i := range times {
			switch rng.IntN(10) {
			case 0, 1, 2: // duplicate
			case 3, 4: // backward step
				now -= rng.Int64N(3*adaptiveEpochUS) + 1
			case 5: // forward jump across several epochs
				now += rng.Int64N(8*adaptiveEpochUS) + 1
			default:
				now += rng.Int64N(adaptiveEpochUS/4 + 1)
			}
			times[i] = now
		}
		tr := nodeTrace(times)
		_, a, err := AdaptiveNode(tr, 300, 8, ctl)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) == 0 || len(a) > n {
			t.Fatalf("seed %d: %d decisions from %d packets", seed, len(a), n)
		}
		for _, d := range a {
			if d.K < ctl.MinK || d.K > ctl.MaxK {
				t.Fatalf("seed %d: k=%d left [%d, %d]", seed, d.K, ctl.MinK, ctl.MaxK)
			}
		}
		_, b, err := AdaptiveNode(tr, 300, 8, ctl)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: decisions are not a pure function of the trace", seed)
		}
	}
}
