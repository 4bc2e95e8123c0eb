package pipeline

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
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
// top-K lists, and final/non-final windows. The embedded integer counts
// are canonical; the float64 mirrors derive from them, as merge writes
// them.
func randomWireSnapshot(seed uint64) *Snapshot {
	rng := dist.NewRNG(seed)
	s := &Snapshot{Snapshot: collect.Snapshot{
		Seq:           rng.Uint64N(1 << 40),
		WindowStartUS: rng.Int64N(1 << 50),
		Final:         rng.IntN(4) == 0,
		Shards:        uint32(1 + rng.IntN(8)),
		Offered:       rng.Uint64N(1 << 50),
		Processed:     rng.Uint64N(1 << 50),
		Selected:      rng.Uint64N(1 << 50),
		Dropped:       rng.Uint64N(1 << 50),
		ActiveFlows:   uint64(rng.IntN(1 << 20)),
	}}
	w := &s.Snapshot
	w.WindowEndUS = w.WindowStartUS + rng.Int64N(1<<30)
	nBins := rng.IntN(64)
	for i := 0; i < nBins; i++ {
		w.SizeCounts = append(w.SizeCounts, rng.Uint64N(1<<32))
	}
	for i := rng.IntN(64); i > 0; i-- {
		w.IatCounts = append(w.IatCounts, rng.Uint64N(1<<32))
	}
	for _, c := range w.SizeCounts {
		s.SizeCounts = append(s.SizeCounts, float64(c))
	}
	for _, c := range w.IatCounts {
		s.IatCounts = append(s.IatCounts, float64(c))
	}
	if rng.IntN(2) == 0 {
		w.SizeReport = &metrics.Report{
			ChiSquare: rng.NormFloat64(), Significance: rng.Float64(),
			Cost: rng.ExpFloat64(), RelativeCost: rng.NormFloat64(),
			PaxsonX2: rng.NormFloat64(), AvgNormDev: rng.Float64(),
			Phi: rng.NormFloat64(),
		}
	}
	if rng.IntN(2) == 0 {
		w.IatReport = &metrics.Report{Phi: rng.NormFloat64(), Cost: rng.Float64()}
	}
	w.FlowCounts.Flows = rng.Uint64N(1 << 40)
	w.FlowCounts.Packets = rng.Uint64N(1 << 40)
	w.FlowCounts.Bytes = rng.Uint64N(1 << 40)
	w.FlowCounts.Singletons = rng.Uint64N(1 << 40)
	for i := rng.IntN(12); i > 0; i-- {
		w.TopK = append(w.TopK, nnstat.Entry{
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
// Wire must stamp the node name on a copy of the embedded form and on
// nothing else, and Wire → EncodeSnapshot → DecodeSnapshot must
// reproduce every field (reports bit-exact); re-encoding the decoded
// form must reproduce the payload byte-for-byte — the canonical-form
// property the store's bit-identical replay guarantee rests on.
func checkWireRoundTrip(t *testing.T, s *Snapshot) {
	t.Helper()
	w := s.Wire("node-under-test")
	if w.Node != "node-under-test" || s.Node != "" {
		t.Fatalf("Wire stamped node %q on the copy and %q on the snapshot", w.Node, s.Node)
	}
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
		d.Shards != s.Shards || d.Offered != s.Offered ||
		d.Processed != s.Processed || d.Selected != s.Selected ||
		d.Dropped != s.Dropped || d.FlowCounts != s.FlowCounts ||
		d.ActiveFlows != s.ActiveFlows {
		t.Fatalf("scalar fields diverged:\n got %+v\nwant wire of %+v", d, s)
	}
	if !slices.Equal(d.SizeCounts, s.Snapshot.SizeCounts) || !slices.Equal(d.IatCounts, s.Snapshot.IatCounts) {
		t.Fatalf("bin counts diverged: %v/%v vs %v/%v",
			d.SizeCounts, d.IatCounts, s.Snapshot.SizeCounts, s.Snapshot.IatCounts)
	}
	if !reportsBitEqual(d.SizeReport, s.SizeReport) || !reportsBitEqual(d.IatReport, s.IatReport) {
		t.Fatal("reports did not survive the round trip bit-exact")
	}
	if !slices.Equal(d.TopK, s.TopK) {
		t.Fatalf("top-k diverged: %+v != %+v", d.TopK, s.TopK)
	}
}

// checkMirrors asserts the float64 mirrors are the embedded integer
// counts bin for bin.
func checkMirrors(t *testing.T, s *Snapshot) {
	t.Helper()
	for _, c := range [...]struct {
		what   string
		mirror []float64
		wire   []uint64
	}{{"size", s.SizeCounts, s.Snapshot.SizeCounts}, {"iat", s.IatCounts, s.Snapshot.IatCounts}} {
		if len(c.mirror) != len(c.wire) {
			t.Fatalf("window %d: %s mirror has %d bins, wire %d", s.Seq, c.what, len(c.mirror), len(c.wire))
		}
		for b, n := range c.wire {
			if c.mirror[b] != float64(n) {
				t.Fatalf("window %d: %s bin %d: mirror %v, wire %d", s.Seq, c.what, b, c.mirror[b], n)
			}
		}
	}
}

// checkFullCapped asserts every slice a snapshot publishes ends at its
// capacity, in both count forms and TopK.
func checkFullCapped(t *testing.T, s *Snapshot) {
	t.Helper()
	for what, lc := range map[string][2]int{
		"TopK":                {len(s.TopK), cap(s.TopK)},
		"SizeCounts":          {len(s.SizeCounts), cap(s.SizeCounts)},
		"IatCounts":           {len(s.IatCounts), cap(s.IatCounts)},
		"Snapshot.SizeCounts": {len(s.Snapshot.SizeCounts), cap(s.Snapshot.SizeCounts)},
		"Snapshot.IatCounts":  {len(s.Snapshot.IatCounts), cap(s.Snapshot.IatCounts)},
	} {
		if lc[0] != lc[1] {
			t.Fatalf("window %d: %s has len %d, cap %d: an append would write into another window", s.Seq, what, lc[0], lc[1])
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
	checkWireRoundTrip(t, &Snapshot{Snapshot: collect.Snapshot{Final: true, SizeReport: &metrics.Report{Phi: math.Inf(1)}}})
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
	wireCounts         string
	sizeRep, iatRep    string
	flows              string
	activeFlows        uint64
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
		wireCounts:  fmt.Sprint(s.Snapshot.SizeCounts, s.Snapshot.IatCounts),
		flows:       fmt.Sprint(s.FlowCounts),
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
// write path (barriers with their shard slots, the store's encode scratch)
// to its one rule: it never reaches a published object. Every window is
// copied inside OnSnapshot — the snapshot field by field, its wire form,
// the encoded payload — and after Run, many recycled cuts later, the
// retained snapshots and the wire objects made then must still say the
// same, and every float64 mirror bin must still equal its integer wire
// bin. Windows share slab chunks, so every slice a window publishes
// must be full-capped: an append to one must not reach its neighbour.
// One-second windows keep the shards cuts ahead of the collector.
func TestPublishedSnapshotsImmutable(t *testing.T) {
	tr := smallTrace(t, 28)
	type frozen struct {
		snap    *Snapshot
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
				OnSnapshot: func(s *Snapshot) {
					w := s.Wire("frozen-node")
					payload, err := collect.EncodeSnapshot(w)
					if err != nil {
						t.Errorf("window %d: encode: %v", s.Seq, err)
					}
					seen = append(seen, frozen{s, projectSnap(s), w, payload})
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
			if len(seen) < 100 {
				t.Fatalf("%d snapshots seen in OnSnapshot, want 100+", len(seen))
			}
			for _, was := range seen {
				s := was.snap
				checkMirrors(t, s)
				checkFullCapped(t, s)
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
