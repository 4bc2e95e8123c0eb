package pipeline

import (
	"testing"
	"time"

	"netsample/internal/trace"
	"netsample/internal/traffgen"
)

// TestScenarioShardBalanceChiSquare extends the χ² shard-balance guard
// to every preset scenario: anomaly traffic (spoofed flood sources,
// sequential scan ports, elephant flows) must still spread across the
// 5-tuple hash within the same 0.999 bounds as the steady-state
// preset, so no scenario can concentrate its flows on one hot shard.
func TestScenarioShardBalanceChiSquare(t *testing.T) {
	type flowKey struct {
		src, dst         [4]byte
		srcPort, dstPort uint16
		proto            uint8
	}
	// χ² 0.999 quantiles for df = shards-1 (same as TestShardBalanceChiSquare).
	crit := map[int]float64{2: 10.83, 4: 16.27, 8: 24.32}
	for _, name := range traffgen.ScenarioNames() {
		s, err := traffgen.PresetScenario(name, 4242, 2*time.Minute)
		if err != nil {
			t.Fatalf("%s: preset: %v", name, err)
		}
		tr, err := traffgen.GenerateScenario(s)
		if err != nil {
			t.Fatalf("%s: generate: %v", name, err)
		}
		flowsSeen := make(map[flowKey]trace.Packet)
		for _, pkt := range tr.Packets {
			k := flowKey{pkt.Src, pkt.Dst, pkt.SrcPort, pkt.DstPort, uint8(pkt.Protocol)}
			if _, ok := flowsSeen[k]; !ok {
				flowsSeen[k] = pkt
			}
		}
		if len(flowsSeen) < 500 {
			t.Fatalf("%s: only %d distinct flows; too few for a balance test", name, len(flowsSeen))
		}
		for _, shards := range []int{2, 4, 8} {
			counts := make([]int, shards)
			for _, pkt := range flowsSeen {
				counts[shardIndex(&pkt, shards)]++
			}
			expected := float64(len(flowsSeen)) / float64(shards)
			var chi2 float64
			for sh, c := range counts {
				d := float64(c) - expected
				chi2 += d * d / expected
				if c == 0 {
					t.Errorf("%s shards=%d: shard %d got no flows", name, shards, sh)
				}
			}
			if chi2 > crit[shards] {
				t.Errorf("%s shards=%d: χ² = %.2f exceeds 0.999 bound %.2f (counts %v)",
					name, shards, chi2, crit[shards], counts)
			}
		}
	}
}
