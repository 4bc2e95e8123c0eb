package pipeline

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"netsample/internal/collect"
	"netsample/internal/dist"
	"netsample/internal/metrics"
	"netsample/internal/nnstat"
	"netsample/internal/online"
)

// randomWireSnapshot derives a pipeline Snapshot from one seed,
// exercising every optional branch of the wire path: empty and
// populated histograms, present and absent reports, zero and crowded
// top-K lists, and final/non-final windows.
func randomWireSnapshot(seed uint64) *Snapshot {
	rng := dist.NewRNG(seed)
	s := &Snapshot{
		Seq:           rng.Uint64N(1 << 40),
		WindowStartUS: rng.Int64N(1 << 50),
		Final:         rng.IntN(4) == 0,
		Shards:        1 + rng.IntN(8),
		Offered:       rng.Uint64N(1 << 50),
		Processed:     rng.Uint64N(1 << 50),
		Selected:      rng.Uint64N(1 << 50),
		Dropped:       rng.Uint64N(1 << 50),
		ActiveFlows:   rng.IntN(1 << 20),
	}
	s.WindowEndUS = s.WindowStartUS + rng.Int64N(1<<30)
	nBins := rng.IntN(64)
	for i := 0; i < nBins; i++ {
		// Counts are integer-valued (exact in float64), like the real
		// histogram accumulators.
		s.SizeCounts = append(s.SizeCounts, float64(rng.Uint64N(1<<32)))
	}
	for i := rng.IntN(64); i > 0; i-- {
		s.IatCounts = append(s.IatCounts, float64(rng.Uint64N(1<<32)))
	}
	if rng.IntN(2) == 0 {
		s.SizeReport = &metrics.Report{
			ChiSquare: rng.NormFloat64(), Significance: rng.Float64(),
			Cost: rng.ExpFloat64(), RelativeCost: rng.NormFloat64(),
			PaxsonX2: rng.NormFloat64(), AvgNormDev: rng.Float64(),
			Phi: rng.NormFloat64(),
		}
	}
	if rng.IntN(2) == 0 {
		s.IatReport = &metrics.Report{Phi: rng.NormFloat64(), Cost: rng.Float64()}
	}
	s.Flows.Flows = rng.Uint64N(1 << 40)
	s.Flows.Packets = rng.Uint64N(1 << 40)
	s.Flows.Bytes = rng.Uint64N(1 << 40)
	s.Flows.Singletons = rng.Uint64N(1 << 40)
	for i := rng.IntN(12); i > 0; i-- {
		s.TopK = append(s.TopK, nnstat.Entry{
			Key:      fmt.Sprintf("flow-%d", rng.Uint64N(1<<32)),
			Count:    rng.Uint64N(1 << 40),
			MaxError: rng.Uint64N(1 << 20),
		})
	}
	return s
}

// reportsBitEqual compares optional reports as float64 bit patterns.
func reportsBitEqual(a, b *metrics.Report) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	for _, pair := range [...][2]float64{
		{a.ChiSquare, b.ChiSquare}, {a.Significance, b.Significance},
		{a.Cost, b.Cost}, {a.RelativeCost, b.RelativeCost},
		{a.PaxsonX2, b.PaxsonX2}, {a.AvgNormDev, b.AvgNormDev},
		{a.Phi, b.Phi},
	} {
		if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
			return false
		}
	}
	return true
}

// checkWireRoundTrip asserts the full wire path for one snapshot:
// Wire → EncodeSnapshot → DecodeSnapshot must reproduce every field
// (reports bit-exact), and re-encoding the decoded form must reproduce
// the payload byte-for-byte — the canonical-form property the store's
// bit-identical replay guarantee rests on.
func checkWireRoundTrip(t *testing.T, s *Snapshot) {
	t.Helper()
	w := s.Wire("node-under-test")
	payload, err := collect.EncodeSnapshot(w)
	if err != nil {
		t.Fatalf("EncodeSnapshot: %v", err)
	}
	d, err := collect.DecodeSnapshot(payload)
	if err != nil {
		t.Fatalf("DecodeSnapshot: %v", err)
	}
	re, err := collect.EncodeSnapshot(d)
	if err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if !bytes.Equal(payload, re) {
		t.Fatalf("wire form not canonical: %d vs %d bytes", len(payload), len(re))
	}
	if d.Node != w.Node || d.Seq != s.Seq || d.WindowStartUS != s.WindowStartUS ||
		d.WindowEndUS != s.WindowEndUS || d.Final != s.Final ||
		d.Shards != uint32(s.Shards) || d.Offered != s.Offered ||
		d.Processed != s.Processed || d.Selected != s.Selected ||
		d.Dropped != s.Dropped || d.FlowCounts != s.Flows ||
		d.ActiveFlows != uint64(s.ActiveFlows) {
		t.Fatalf("scalar fields diverged:\n got %+v\nwant wire of %+v", d, s)
	}
	if len(d.SizeCounts) != len(s.SizeCounts) || len(d.IatCounts) != len(s.IatCounts) {
		t.Fatalf("bin counts diverged: %d/%d vs %d/%d",
			len(d.SizeCounts), len(d.IatCounts), len(s.SizeCounts), len(s.IatCounts))
	}
	for i, c := range s.SizeCounts {
		if d.SizeCounts[i] != uint64(c) {
			t.Fatalf("size bin %d: %d != %v", i, d.SizeCounts[i], c)
		}
	}
	for i, c := range s.IatCounts {
		if d.IatCounts[i] != uint64(c) {
			t.Fatalf("iat bin %d: %d != %v", i, d.IatCounts[i], c)
		}
	}
	if !reportsBitEqual(d.SizeReport, s.SizeReport) || !reportsBitEqual(d.IatReport, s.IatReport) {
		t.Fatal("reports did not survive the round trip bit-exact")
	}
	if len(d.TopK) != len(s.TopK) {
		t.Fatalf("top-k length %d, want %d", len(d.TopK), len(s.TopK))
	}
	for i, e := range s.TopK {
		if d.TopK[i] != e {
			t.Fatalf("top-k entry %d: %+v != %+v", i, d.TopK[i], e)
		}
	}
}

// TestSnapshotWireRoundTripProperty sweeps the property over many
// seeded snapshots — the deterministic companion to FuzzSnapshotWire.
func TestSnapshotWireRoundTripProperty(t *testing.T) {
	for seed := uint64(0); seed < 300; seed++ {
		checkWireRoundTrip(t, randomWireSnapshot(seed))
	}
	// Degenerate shapes the sweep may miss.
	checkWireRoundTrip(t, &Snapshot{})
	checkWireRoundTrip(t, &Snapshot{Final: true, SizeReport: &metrics.Report{Phi: math.Inf(1)}})
}

// FuzzSnapshotWire drives the same property from fuzzed seeds, so the
// generator's branch mix (report presence, bin counts, top-K sizes) is
// explored beyond the fixed sweep. Seeds are checked in under
// testdata/fuzz/FuzzSnapshotWire (regenerate with NSGEN_CORPUS=1).
func FuzzSnapshotWire(f *testing.F) {
	for _, seed := range wireFuzzSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		checkWireRoundTrip(t, randomWireSnapshot(seed))
	})
}

// wireFuzzSeeds are the canonical seeds: one per generator regime
// (empty-ish, report-bearing, top-K-heavy) found by inspection.
var wireFuzzSeeds = []uint64{0, 1, 2, 7, 42, 1993, 1<<63 - 1}

// TestGenWireCorpus writes the seed corpus for FuzzSnapshotWire. Run
// explicitly with NSGEN_CORPUS=1.
func TestGenWireCorpus(t *testing.T) {
	if os.Getenv("NSGEN_CORPUS") == "" {
		t.Skip("corpus generator; set NSGEN_CORPUS=1 to regenerate testdata/fuzz")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzSnapshotWire")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, seed := range wireFuzzSeeds {
		content := fmt.Sprintf("go test fuzz v1\nuint64(%d)\n", seed)
		name := fmt.Sprintf("seed_%d", seed)
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// snapProj is the topology-invariant projection of a Snapshot: every
// field that must be bit-identical for any shard count. (Shards
// describes the topology itself.)
type snapProj struct {
	seq                uint64
	start, end         int64
	final              bool
	k                  int
	offered, processed uint64
	selected, dropped  uint64
	sizeCounts         string
	iatCounts          string
	sizeRep, iatRep    string
	flows              string
	activeFlows        int
	topk               string
}

func projectSnap(s *Snapshot) snapProj {
	p := snapProj{
		seq: s.Seq, start: s.WindowStartUS, end: s.WindowEndUS,
		final: s.Final, k: s.K,
		offered: s.Offered, processed: s.Processed,
		selected: s.Selected, dropped: s.Dropped,
		sizeCounts:  fmt.Sprint(s.SizeCounts),
		iatCounts:   fmt.Sprint(s.IatCounts),
		flows:       fmt.Sprint(s.Flows),
		activeFlows: s.ActiveFlows,
		topk:        fmt.Sprint(s.TopK),
	}
	if s.SizeReport != nil {
		p.sizeRep = fmt.Sprint(reportBits(*s.SizeReport))
	}
	if s.IatReport != nil {
		p.iatRep = fmt.Sprint(reportBits(*s.IatReport))
	}
	return p
}

// TestPublishedSnapshotsImmutable holds the recycling on the window's
// write path (barriers, shard cut buffers, the store's encode scratch)
// to its one rule: it never reaches a published object. Every window is
// copied inside OnSnapshot — the snapshot field by field, its wire form,
// the encoded payload — and after Run, many recycled cuts later, the
// retained snapshots and the wire objects made then must still say the
// same. One-second windows keep the shards cuts ahead of the collector.
func TestPublishedSnapshotsImmutable(t *testing.T) {
	tr := smallTrace(t, 28)
	sizeEval, iatEval := evaluators(t, tr)
	type frozen struct {
		proj    snapProj
		wire    *collect.Snapshot
		payload []byte
	}
	for _, tc := range []struct {
		name     string
		shards   int
		adaptive bool
	}{
		{"shards=1", 1, false}, {"shards=2", 2, false}, {"shards=4", 4, false}, {"adaptive", 2, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var seen []frozen
			cfg := Config{
				Shards:   tc.shards,
				WindowUS: 1_000_000,
				SizeEval: sizeEval,
				IatEval:  iatEval,
				OnSnapshot: func(s *Snapshot) {
					w := s.Wire("frozen-node")
					payload, err := collect.EncodeSnapshot(w)
					if err != nil {
						t.Errorf("window %d: encode: %v", s.Seq, err)
					}
					seen = append(seen, frozen{projectSnap(s), w, payload})
				},
			}
			if tc.adaptive {
				cfg.Adaptive = &AdaptiveConfig{MinK: 2, MaxK: 64, StartK: 8, TargetPhi: 0.2}
			} else {
				cfg.NewSampler = func(int) (online.Sampler, error) { return online.NewSystematic(5, 0) }
			}
			p, err := New(cfg)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			if err := p.Run(tr.Replay()); err != nil {
				t.Fatalf("Run: %v", err)
			}
			snaps := p.Snapshots()
			if len(snaps) < 100 || len(snaps) != len(seen) {
				t.Fatalf("%d snapshots retained, %d seen in OnSnapshot, want the same 100+", len(snaps), len(seen))
			}
			for i, s := range snaps {
				was := seen[i]
				if projectSnap(s) != was.proj {
					t.Fatalf("window %d changed after publication:\n got %+v\nwant %+v", s.Seq, projectSnap(s), was.proj)
				}
				for what, w := range map[string]*collect.Snapshot{"wire form made at publication": was.wire, "snapshot's wire form": s.Wire("frozen-node")} {
					payload, err := collect.EncodeSnapshot(w)
					if err != nil {
						t.Fatalf("window %d: %s: encode: %v", s.Seq, what, err)
					}
					if !bytes.Equal(payload, was.payload) {
						t.Fatalf("window %d: %s no longer encodes to the payload published", s.Seq, what)
					}
				}
			}
		})
	}
}
