package pipeline

import (
	"errors"
	"testing"

	"netsample/internal/online"
	"netsample/internal/trace"
	"netsample/internal/traffgen"
)

// TestIngestWorkersValidation checks the vestigial knob: the reader is
// the one front-end goroutine, so only the two spellings of "one
// worker" are accepted.
func TestIngestWorkersValidation(t *testing.T) {
	for _, workers := range []int{-1, 0, 1, 2} {
		_, err := New(Config{
			Shards:        1,
			IngestWorkers: workers,
			NewSampler:    func(int) (online.Sampler, error) { return online.NewSystematic(1, 0) },
		})
		if ok := workers == 0 || workers == 1; ok && err != nil {
			t.Errorf("IngestWorkers %d rejected: %v", workers, err)
		} else if !ok && !errors.Is(err, ErrConfig) {
			t.Errorf("IngestWorkers %d: err = %v, want ErrConfig", workers, err)
		}
	}
}

// TestShardBalanceChiSquare is the satellite guard against pathological
// hash skew: the 5-tuple hash must spread the traffgen preset's
// distinct flows across 2, 4, and 8 shards within a χ² bound, so one
// hot shard cannot silently eat the scaling win. The 0.999 quantiles
// keep the deterministic test far from flake territory while still
// catching any real skew (a 2× hot shard over thousands of flows blows
// past these bounds by orders of magnitude).
func TestShardBalanceChiSquare(t *testing.T) {
	tr, err := traffgen.Generate(traffgen.SmallTrace(4242))
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	type flowKey struct {
		src, dst         [4]byte
		srcPort, dstPort uint16
		proto            uint8
	}
	flowsSeen := make(map[flowKey]trace.Packet)
	for _, pkt := range tr.Packets {
		k := flowKey{pkt.Src, pkt.Dst, pkt.SrcPort, pkt.DstPort, uint8(pkt.Protocol)}
		if _, ok := flowsSeen[k]; !ok {
			flowsSeen[k] = pkt
		}
	}
	if len(flowsSeen) < 500 {
		t.Fatalf("preset yields only %d distinct flows; too few for a balance test", len(flowsSeen))
	}
	// χ² 0.999 quantiles for df = shards-1.
	crit := map[int]float64{2: 10.83, 4: 16.27, 8: 24.32}
	for _, shards := range []int{2, 4, 8} {
		counts := make([]int, shards)
		for _, pkt := range flowsSeen {
			counts[shardIndex(&pkt, shards)]++
		}
		expected := float64(len(flowsSeen)) / float64(shards)
		var chi2 float64
		for s, c := range counts {
			d := float64(c) - expected
			chi2 += d * d / expected
			if c == 0 {
				t.Errorf("shards=%d: shard %d got no flows", shards, s)
			}
		}
		if chi2 > crit[shards] {
			t.Errorf("shards=%d: χ² = %.2f exceeds 0.999 bound %.2f (counts %v)",
				shards, chi2, crit[shards], counts)
		}
	}
}
