package pipeline

import (
	"errors"
	"io"
	"testing"

	"netsample/internal/dist"
	"netsample/internal/online"
	"netsample/internal/trace"
	"netsample/internal/traffgen"
)

// TestParallelIngestDeterministic pins the fixed-sampler determinism
// guarantee: under the Block policy the snapshot sequence is identical
// for any number of shards, because the reader decides selection once
// and every ring between it and a shard is FIFO.
func TestParallelIngestDeterministic(t *testing.T) {
	tr := smallTrace(t, 777)
	ref, _ := assertTopologyInvariant(t, func(shards int) ([]snapProj, []AdaptiveDecision) {
		snaps, err := runStratified(t, tr, 7, shards, tr.Replay())
		if err != nil {
			t.Fatalf("Run(shards=%d): %v", shards, err)
		}
		return projectSnaps(snaps), nil
	})
	if len(ref) < 2 {
		t.Fatalf("want multiple windows, got %d", len(ref))
	}
	// The adversarial shape: single-packet and tiny units through depth-1
	// rings, so nearly every push and pop meets a full or empty ring and
	// the spin-then-park path carries the stream, with 15 s windows
	// slicing barriers between the units.
	for _, batch := range []int{1, 3} {
		assertTopologyInvariant(t, func(shards int) ([]snapProj, []AdaptiveDecision) {
			p, err := New(Config{
				Shards:       shards,
				BatchSize:    batch,
				QueueDepth:   1,
				WindowUS:     15_000_000,
				TopKCapacity: 16384, // exact sketch counts: see runStratified
				NewSampler: func(int) (online.Sampler, error) {
					return online.NewStratified(50, dist.NewRNG(11))
				},
			})
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			if err := p.Run(tr.Replay()); err != nil {
				t.Fatalf("Run(batch=%d shards=%d): %v", batch, shards, err)
			}
			return projectSnaps(p.Snapshots()), nil
		})
	}
}

// TestParallelIngestDropConservation checks the Drop policy's books
// hold per window when drops happen on several shard rings: every shed
// batch is counted once and flushed to exactly one shard before the
// window's barrier, and shedding after selection never counts a
// selected packet twice.
func TestParallelIngestDropConservation(t *testing.T) {
	tr := smallTrace(t, 333)
	p, err := New(Config{
		Shards:     4,
		QueueDepth: 1,
		BatchSize:  16,
		Policy:     Drop,
		WindowUS:   20_000_000,
		NewSampler: func(int) (online.Sampler, error) {
			return online.NewSystematic(50, 0)
		},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := p.Run(tr.Replay()); err != nil {
		t.Fatalf("Run: %v", err)
	}
	snaps := p.Snapshots()
	if len(snaps) < 2 {
		t.Fatalf("want multiple windows, got %d", len(snaps))
	}
	offered, dropped := assertDropAccounting(t, snaps, 50)
	if offered != uint64(tr.Len()) {
		t.Errorf("total offered %d, want trace length %d", offered, tr.Len())
	}
	if dropped == offered {
		t.Error("no packets processed")
	}
}

// TestBatchSourcePreferred checks Run consumes a BatchSource through
// the adapter's batch form and produces the same totals as the
// per-packet path and as the Replayer's own record windows.
func TestBatchSourcePreferred(t *testing.T) {
	tr := smallTrace(t, 55)
	if _, ok := interface{}(tr.Replay()).(RawBatchSource); !ok {
		t.Fatal("*trace.Replayer no longer implements RawBatchSource")
	}
	run := func(src Source) *Snapshot {
		p, err := New(Config{
			Shards:     2,
			NewSampler: func(int) (online.Sampler, error) { return online.NewSystematic(7, 0) },
		})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		if err := p.Run(src); err != nil {
			t.Fatalf("Run: %v", err)
		}
		snap, ok := p.Latest()
		if !ok {
			t.Fatal("no snapshot")
		}
		return snap
	}
	batch := run(&tornSource{pkts: tr.Packets, err: io.EOF})
	perPkt := run(&perPacketOnly{r: tr.Replay()})
	raw := run(tr.Replay())
	for name, got := range map[string]*Snapshot{"per-packet": perPkt, "raw": raw} {
		if batch.Offered != got.Offered || batch.Selected != got.Selected {
			t.Errorf("batch path (offered %d, selected %d) != %s path (offered %d, selected %d)",
				batch.Offered, batch.Selected, name, got.Offered, got.Selected)
		}
	}
	if batch.Offered != uint64(tr.Len()) {
		t.Errorf("offered %d, want %d", batch.Offered, tr.Len())
	}
}

// perPacketOnly hides a Replayer's NextRawBatch so Run must adapt it.
type perPacketOnly struct{ r *trace.Replayer }

func (s *perPacketOnly) Next() (trace.Packet, error) { return s.r.Next() }

// TestIngestWorkersValidation checks the vestigial knob: the stage is
// single, so only the two spellings of "one worker" are accepted.
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
