package pipeline

import (
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"testing"

	"netsample/internal/bins"
	"netsample/internal/core"
	"netsample/internal/dist"
	"netsample/internal/metrics"
	"netsample/internal/online"
	"netsample/internal/packet"
	"netsample/internal/trace"
	"netsample/internal/traffgen"
)

// smallTrace generates the shared 2-minute test population.
func smallTrace(t testing.TB, seed uint64) *trace.Trace {
	t.Helper()
	tr, err := traffgen.Generate(traffgen.SmallTrace(seed))
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	return tr
}

// evaluators builds the paper-scheme reference evaluators over tr.
func evaluators(t testing.TB, tr *trace.Trace) (sizeEval, iatEval *core.Evaluator) {
	t.Helper()
	var err error
	if sizeEval, err = core.NewEvaluator(tr, core.TargetSize, bins.PacketSize()); err != nil {
		t.Fatalf("size evaluator: %v", err)
	}
	if iatEval, err = core.NewEvaluator(tr, core.TargetInterarrival, bins.Interarrival()); err != nil {
		t.Fatalf("iat evaluator: %v", err)
	}
	return sizeEval, iatEval
}

// reportBits flattens a report to its float64 bit patterns for exact
// comparison.
func reportBits(r metrics.Report) [7]uint64 {
	return [7]uint64{
		math.Float64bits(r.ChiSquare), math.Float64bits(r.Significance),
		math.Float64bits(r.Cost), math.Float64bits(r.RelativeCost),
		math.Float64bits(r.PaxsonX2), math.Float64bits(r.AvgNormDev),
		math.Float64bits(r.Phi),
	}
}

// TestSnapshotMatchesBatch pins the guarantee the reader-owned sampler
// exists for: for every streaming method, at any shard count, the final
// snapshot — selected count, both histograms, and every float64 of both
// metric reports — is bit-identical to scoring, with the
// batch evaluator, the packets core's batch sampler selects from the
// whole trace on the same seed.
func TestSnapshotMatchesBatch(t *testing.T) {
	const seed = 42
	tr := smallTrace(t, 777)
	period, err := core.PeriodForGranularity(tr, 50)
	if err != nil {
		t.Fatalf("period: %v", err)
	}
	// The online stratified sampler draws one target per full bucket; the
	// batch form draws a uniform index over the partial tail bucket too,
	// so draw sequences only align when the length is a bucket multiple.
	trimmed := &trace.Trace{Start: tr.Start, ClockUS: tr.ClockUS}
	trimmed.Packets = tr.Packets[:tr.Len()-tr.Len()%50]

	cases := []struct {
		name  string
		tr    *trace.Trace
		batch core.Sampler
		build func(int) (online.Sampler, error)
	}{
		{
			name:  "systematic",
			tr:    tr,
			batch: core.SystematicCount{K: 50},
			build: func(int) (online.Sampler, error) { return online.NewSystematic(50, 0) },
		},
		{
			name:  "stratified",
			tr:    trimmed,
			batch: core.StratifiedCount{K: 50},
			build: func(int) (online.Sampler, error) {
				return online.NewStratified(50, dist.NewRNG(seed))
			},
		},
		{
			name:  "systematic-timer",
			tr:    tr,
			batch: core.SystematicTimer{PeriodUS: period},
			build: func(int) (online.Sampler, error) {
				return online.NewSystematicTimer(period, 0)
			},
		},
		{
			name:  "stratified-timer",
			tr:    tr,
			batch: core.StratifiedTimer{PeriodUS: period},
			build: func(int) (online.Sampler, error) {
				return online.NewStratifiedTimer(period, dist.NewRNG(seed))
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sizeEval, iatEval := evaluators(t, tc.tr)
			idx, err := tc.batch.Select(tc.tr, dist.NewRNG(seed))
			if err != nil {
				t.Fatalf("batch select: %v", err)
			}
			wantSize, err := sizeEval.Score(idx)
			if err != nil {
				t.Fatalf("batch size score: %v", err)
			}
			wantIat, err := iatEval.Score(idx)
			if err != nil {
				t.Fatalf("batch iat score: %v", err)
			}
			// Reference histograms: a selected packet's size, and its gap
			// to its predecessor in the full stream (the first has none).
			wantSizeCounts := make([]float64, sizeEval.NumBins())
			wantIatCounts := make([]float64, iatEval.NumBins())
			for _, i := range idx {
				pkts := tc.tr.Packets
				wantSizeCounts[bins.PacketSize().Index(float64(pkts[i].Size))]++
				if i > 0 {
					wantIatCounts[bins.Interarrival().Index(float64(pkts[i].Time-pkts[i-1].Time))]++
				}
			}

			for _, shards := range []int{1, 2, 4} {
				// The workers label selects nothing — the ingest stage is
				// single — and stays only because the recorded test floor
				// names these sub-tests; it goes when a PR can rename them.
				for _, workers := range []int{1, 3} {
					t.Run(fmt.Sprintf("shards=%d,workers=%d", shards, workers), func(t *testing.T) {
						p, err := New(Config{
							Shards:     shards,
							NewSampler: tc.build,
							SizeEval:   sizeEval,
							IatEval:    iatEval,
						})
						if err != nil {
							t.Fatalf("New: %v", err)
						}
						if err := p.Run(tc.tr.Replay()); err != nil {
							t.Fatalf("Run: %v", err)
						}
						snap, ok := p.Latest()
						if !ok {
							t.Fatal("no snapshot published")
						}
						if !snap.Final {
							t.Error("final snapshot not marked Final")
						}
						if got, want := snap.Selected, uint64(len(idx)); got != want {
							t.Errorf("Selected = %d, want %d", got, want)
						}
						if got, want := snap.Processed, uint64(tc.tr.Len()); got != want {
							t.Errorf("Processed = %d, want %d", got, want)
						}
						if !reflect.DeepEqual(snap.SizeCounts, wantSizeCounts) {
							t.Errorf("SizeCounts = %v, want %v", snap.SizeCounts, wantSizeCounts)
						}
						if !reflect.DeepEqual(snap.IatCounts, wantIatCounts) {
							t.Errorf("IatCounts = %v, want %v", snap.IatCounts, wantIatCounts)
						}
						if snap.SizeReport == nil || snap.IatReport == nil {
							t.Fatal("snapshot reports missing")
						}
						if got, want := reportBits(*snap.SizeReport), reportBits(wantSize); got != want {
							t.Errorf("size report bits = %v, want %v", got, want)
						}
						if got, want := reportBits(*snap.IatReport), reportBits(wantIat); got != want {
							t.Errorf("iat report bits = %v, want %v", got, want)
						}
					})
				}
			}
		})
	}
}

// TestWindowedCountsSumToBatch checks the window cuts lose nothing: the
// per-window histogram counts and selection totals of a windowed run
// sum to the single-window (= batch) values, windows are sequenced, and
// only the last is final.
func TestWindowedCountsSumToBatch(t *testing.T) {
	tr := smallTrace(t, 777)
	sizeEval, iatEval := evaluators(t, tr)
	newSys := func(int) (online.Sampler, error) { return online.NewSystematic(50, 0) }

	p, err := New(Config{
		Shards:     1,
		NewSampler: newSys,
		SizeEval:   sizeEval,
		IatEval:    iatEval,
		WindowUS:   10_000_000, // 10 s of a 2-minute trace
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := p.Run(tr.Replay()); err != nil {
		t.Fatalf("Run: %v", err)
	}
	snaps := p.Snapshots()
	if len(snaps) < 10 {
		t.Fatalf("got %d windows, want >= 10", len(snaps))
	}
	idx, err := core.SystematicCount{K: 50}.Select(tr, nil)
	if err != nil {
		t.Fatalf("batch select: %v", err)
	}
	sizeSum := make([]float64, bins.PacketSize().NumBins())
	iatSum := make([]float64, bins.Interarrival().NumBins())
	var selected, offered uint64
	for i, s := range snaps {
		if s.Seq != uint64(i+1) {
			t.Errorf("window %d has Seq %d", i, s.Seq)
		}
		if s.Final != (i == len(snaps)-1) {
			t.Errorf("window %d Final = %v", i, s.Final)
		}
		if s.Offered != s.Processed+s.Dropped {
			t.Errorf("window %d: offered %d != processed %d + dropped %d",
				i, s.Offered, s.Processed, s.Dropped)
		}
		for b, c := range s.SizeCounts {
			sizeSum[b] += c
		}
		for b, c := range s.IatCounts {
			iatSum[b] += c
		}
		selected += s.Selected
		offered += s.Offered
	}
	if selected != uint64(len(idx)) {
		t.Errorf("summed Selected = %d, want %d", selected, len(idx))
	}
	if offered != uint64(tr.Len()) {
		t.Errorf("summed Offered = %d, want %d", offered, tr.Len())
	}
	wantSize, err := sizeEval.Score(idx)
	if err != nil {
		t.Fatalf("batch score: %v", err)
	}
	sumRep, err := sizeEval.ScoreCounts(sizeSum)
	if err != nil {
		t.Fatalf("sum score: %v", err)
	}
	if reportBits(sumRep) != reportBits(wantSize) {
		t.Error("summed window counts score differently from batch")
	}
	wantIat, err := iatEval.Score(idx)
	if err != nil {
		t.Fatalf("batch iat score: %v", err)
	}
	iatSumRep, err := iatEval.ScoreCounts(iatSum)
	if err != nil {
		t.Fatalf("iat sum score: %v", err)
	}
	if reportBits(iatSumRep) != reportBits(wantIat) {
		t.Error("summed iat window counts score differently from batch")
	}
}

// runStratified runs a stratified 1-in-50 pipeline with 30 s windows
// over src, scored against tr, and returns its snapshots beside Run's
// error. The sketch capacity exceeds a window's distinct selected flows,
// which keeps every shard's Space-Saving counts exact and the merged
// TopK the same for any shard count.
func runStratified(t *testing.T, tr *trace.Trace, seed uint64, shards int, src Source) ([]*Snapshot, error) {
	t.Helper()
	sizeEval, iatEval := evaluators(t, tr)
	p, err := New(Config{
		Shards: shards,
		NewSampler: func(int) (online.Sampler, error) {
			return online.NewStratified(50, dist.NewRNG(seed))
		},
		SizeEval:     sizeEval,
		IatEval:      iatEval,
		WindowUS:     30_000_000,
		TopKCapacity: 16384,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	err = p.Run(src)
	return p.Snapshots(), err
}

// assertSnapshotsEqual compares two snapshots field by field, floats by
// bit pattern.
func assertSnapshotsEqual(t *testing.T, win int, a, b *Snapshot) {
	t.Helper()
	fail := func(field string, av, bv any) {
		t.Errorf("window %d: %s differs: %v vs %v", win, field, av, bv)
	}
	if a.Seq != b.Seq {
		fail("Seq", a.Seq, b.Seq)
	}
	if a.WindowStartUS != b.WindowStartUS || a.WindowEndUS != b.WindowEndUS {
		fail("bounds", a.WindowStartUS, b.WindowStartUS)
	}
	if a.Final != b.Final {
		fail("Final", a.Final, b.Final)
	}
	if a.Offered != b.Offered || a.Processed != b.Processed ||
		a.Selected != b.Selected || a.Dropped != b.Dropped {
		fail("counters", []uint64{a.Offered, a.Processed, a.Selected, a.Dropped},
			[]uint64{b.Offered, b.Processed, b.Selected, b.Dropped})
	}
	if len(a.SizeCounts) != len(b.SizeCounts) || len(a.IatCounts) != len(b.IatCounts) {
		fail("count lengths", len(a.SizeCounts), len(b.SizeCounts))
		return
	}
	for i := range a.SizeCounts {
		if a.SizeCounts[i] != b.SizeCounts[i] {
			fail("SizeCounts", a.SizeCounts, b.SizeCounts)
			break
		}
	}
	for i := range a.IatCounts {
		if a.IatCounts[i] != b.IatCounts[i] {
			fail("IatCounts", a.IatCounts, b.IatCounts)
			break
		}
	}
	for _, pair := range []struct {
		name string
		x, y *metrics.Report
	}{{"SizeReport", a.SizeReport, b.SizeReport}, {"IatReport", a.IatReport, b.IatReport}} {
		if (pair.x == nil) != (pair.y == nil) {
			fail(pair.name, pair.x, pair.y)
			continue
		}
		if pair.x != nil && reportBits(*pair.x) != reportBits(*pair.y) {
			fail(pair.name, *pair.x, *pair.y)
		}
	}
	if a.Flows != b.Flows || a.ActiveFlows != b.ActiveFlows {
		fail("flows", a.Flows, b.Flows)
	}
	if len(a.TopK) != len(b.TopK) {
		fail("TopK length", len(a.TopK), len(b.TopK))
		return
	}
	for i := range a.TopK {
		if a.TopK[i] != b.TopK[i] {
			fail("TopK", a.TopK[i], b.TopK[i])
			break
		}
	}
}

// TestMultiShardConservation runs with k=1 (select everything) across 4
// shards and checks the merged snapshot reproduces the population
// exactly — nothing is lost or double-counted by sharding and merging.
func TestMultiShardConservation(t *testing.T) {
	tr := smallTrace(t, 777)
	sizeEval, iatEval := evaluators(t, tr)
	p, err := New(Config{
		Shards:     4,
		NewSampler: func(int) (online.Sampler, error) { return online.NewSystematic(1, 0) },
		SizeEval:   sizeEval,
		IatEval:    iatEval,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := p.Run(tr.Replay()); err != nil {
		t.Fatalf("Run: %v", err)
	}
	snap, ok := p.Latest()
	if !ok {
		t.Fatal("no snapshot")
	}
	n := uint64(tr.Len())
	if snap.Offered != n || snap.Processed != n || snap.Selected != n {
		t.Errorf("offered/processed/selected = %d/%d/%d, want all %d",
			snap.Offered, snap.Processed, snap.Selected, n)
	}
	if snap.Dropped != 0 {
		t.Errorf("Dropped = %d under Block policy", snap.Dropped)
	}
	scheme := bins.PacketSize()
	wantSize := make([]float64, scheme.NumBins())
	for _, pkt := range tr.Packets {
		wantSize[scheme.Index(float64(pkt.Size))]++
	}
	for b := range wantSize {
		if snap.SizeCounts[b] != wantSize[b] {
			t.Errorf("SizeCounts[%d] = %v, want %v", b, snap.SizeCounts[b], wantSize[b])
		}
	}
	var iatTotal float64
	for _, c := range snap.IatCounts {
		iatTotal += c
	}
	if want := float64(tr.Len() - 1); iatTotal != want {
		t.Errorf("iat observations = %v, want %v", iatTotal, want)
	}
	if snap.Flows.Packets != n {
		t.Errorf("flow packet total = %d, want %d", snap.Flows.Packets, n)
	}
	// Everything was selected, so the selected-packet φ must be exact 0.
	if snap.SizeReport == nil || snap.SizeReport.Phi != 0 {
		t.Errorf("k=1 size φ = %v, want 0", snap.SizeReport)
	}
}

// gateSource feeds n synthetic packets 1 ms apart, each on its own
// 5-tuple so they spread over the shards, and opens the gate when it
// hands out packet openAt.
type gateSource struct {
	n, openAt int
	pos       int
	gate      chan struct{}
}

func (g *gateSource) Next() (trace.Packet, error) {
	if g.pos >= g.n {
		return trace.Packet{}, io.EOF
	}
	if g.pos == g.openAt {
		close(g.gate)
	}
	i := g.pos
	g.pos++
	return trace.Packet{
		Time: int64(i) * 1000,
		Size: 100,
		Src:  packet.Addr{10, 0, byte(i >> 8), byte(i)},
	}, nil
}

// gateScheme is an interarrival scheme whose Index waits for the gate:
// a shard wedges on the first selected packet it bins.
type gateScheme struct {
	bins.Scheme
	gate <-chan struct{}
}

func (g gateScheme) Index(x float64) int {
	<-g.gate
	return g.Scheme.Index(x)
}

// assertDropAccounting checks the Drop policy's books window by window:
// Offered == Processed + Dropped == the per-shard drops plus Processed,
// Selected <= Processed, every selected packet binned exactly once, and
// over the run no more selections than the reader's 1-in-k schedule
// made. It returns the run's offered and dropped totals.
func assertDropAccounting(t *testing.T, snaps []*Snapshot, k int) (offered, dropped uint64) {
	t.Helper()
	var selected uint64
	for i, s := range snaps {
		if s.Offered != s.Processed+s.Dropped {
			t.Errorf("window %d: offered %d != processed %d + dropped %d",
				i, s.Offered, s.Processed, s.Dropped)
		}
		var byShard uint64
		for _, d := range s.DroppedByShard {
			byShard += d
		}
		if byShard != s.Dropped {
			t.Errorf("window %d: DroppedByShard sums to %d, want %d", i, byShard, s.Dropped)
		}
		if s.Selected > s.Processed {
			t.Errorf("window %d: Selected %d > Processed %d", i, s.Selected, s.Processed)
		}
		var binned float64
		for _, c := range s.SizeCounts {
			binned += c
		}
		if binned != float64(s.Selected) {
			t.Errorf("window %d: %v size observations for %d selected packets", i, binned, s.Selected)
		}
		offered += s.Offered
		dropped += s.Dropped
		selected += s.Selected
	}
	if max := (offered + uint64(k) - 1) / uint64(k); selected > max {
		t.Errorf("selected %d of %d offered, more than the 1-in-%d schedule's %d", selected, offered, k, max)
	}
	return offered, dropped
}

// TestDropPolicyAccounting wedges the shards behind a gate for most of
// the first window so their one-batch rings overflow, and checks drops
// are counted, surfaced per shard, and consistent with the offered,
// processed and selected totals when selection precedes shedding.
func TestDropPolicyAccounting(t *testing.T) {
	const n = 4000
	gate := make(chan struct{})
	p, err := New(Config{
		Shards:     4,
		QueueDepth: 1,
		BatchSize:  1,
		Policy:     Drop,
		WindowUS:   2_000_000, // 2000 packets; the gate opens inside the first
		IatScheme:  gateScheme{bins.Interarrival(), gate},
		NewSampler: func(int) (online.Sampler, error) { return online.NewSystematic(50, 0) },
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := p.Run(&gateSource{n: n, openAt: 1500, gate: gate}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	snaps := p.Snapshots()
	if len(snaps) != 2 {
		t.Fatalf("got %d windows, want 2", len(snaps))
	}
	offered, _ := assertDropAccounting(t, snaps, 50)
	if offered != n {
		t.Errorf("Offered = %d, want %d", offered, n)
	}
	if snaps[0].Dropped == 0 {
		t.Error("Dropped = 0 in the wedged window; ring overflow was not counted")
	}
}

// stopSource stops the pipeline after delivering `stopAt` packets.
type stopSource struct {
	p      *Pipeline
	n      int
	stopAt int
	pos    int
}

func (s *stopSource) Next() (trace.Packet, error) {
	if s.pos >= s.n {
		return trace.Packet{}, io.EOF
	}
	if s.pos == s.stopAt {
		s.p.Stop()
	}
	p := trace.Packet{Time: int64(s.pos) * 1000, Size: 100}
	s.pos++
	return p, nil
}

// TestStopDrains checks Stop ends ingest promptly but still drains: the
// final snapshot covers exactly the packets delivered before the stop
// took effect.
func TestStopDrains(t *testing.T) {
	p, err := New(Config{
		Shards:     2,
		NewSampler: func(int) (online.Sampler, error) { return online.NewSystematic(1, 0) },
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	src := &stopSource{p: p, n: 10_000, stopAt: 100}
	if err := p.Run(src); err != nil {
		t.Fatalf("Run: %v", err)
	}
	snap, ok := p.Latest()
	if !ok {
		t.Fatal("no snapshot")
	}
	if !snap.Final {
		t.Error("snapshot after Stop not Final")
	}
	// Stop is checked before each read: the packet returned by the call
	// that triggered Stop is still delivered, nothing after it is read.
	if snap.Offered != 101 {
		t.Errorf("Offered = %d, want 101", snap.Offered)
	}
	if snap.Processed != snap.Offered {
		t.Errorf("Block policy lost packets: processed %d of %d", snap.Processed, snap.Offered)
	}
}

// errSource fails mid-stream.
type errSource struct {
	pos int
	err error
}

func (e *errSource) Next() (trace.Packet, error) {
	if e.pos >= 5 {
		return trace.Packet{}, e.err
	}
	p := trace.Packet{Time: int64(e.pos), Size: 40}
	e.pos++
	return p, nil
}

// TestSourceErrorSurfacedAfterDrain checks a source error still drains
// the pipeline (final snapshot covers the packets read) and is returned
// from Run.
func TestSourceErrorSurfacedAfterDrain(t *testing.T) {
	sentinel := errors.New("stream torn down")
	p, err := New(Config{
		Shards:     1,
		NewSampler: func(int) (online.Sampler, error) { return online.NewSystematic(1, 0) },
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	err = p.Run(&errSource{err: sentinel})
	if !errors.Is(err, sentinel) {
		t.Fatalf("Run error = %v, want wrapped sentinel", err)
	}
	snap, ok := p.Latest()
	if !ok {
		t.Fatal("no snapshot after source error")
	}
	if snap.Offered != 5 || !snap.Final {
		t.Errorf("final snapshot Offered = %d Final = %v, want 5/true", snap.Offered, snap.Final)
	}
}

// TestRunOnce checks the one-shot contract.
func TestRunOnce(t *testing.T) {
	tr := smallTrace(t, 1)
	p, err := New(Config{
		Shards:     1,
		NewSampler: func(int) (online.Sampler, error) { return online.NewSystematic(10, 0) },
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := p.Run(tr.Replay()); err != nil {
		t.Fatalf("first Run: %v", err)
	}
	if err := p.Run(tr.Replay()); !errors.Is(err, ErrReused) {
		t.Fatalf("second Run error = %v, want ErrReused", err)
	}
}

// TestEmptySource checks the degenerate empty stream publishes one
// empty final snapshot instead of hanging or panicking.
func TestEmptySource(t *testing.T) {
	p, err := New(Config{
		Shards:     2,
		NewSampler: func(int) (online.Sampler, error) { return online.NewSystematic(10, 0) },
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	empty := &trace.Trace{}
	if err := p.Run(empty.Replay()); err != nil {
		t.Fatalf("Run: %v", err)
	}
	snap, ok := p.Latest()
	if !ok {
		t.Fatal("no snapshot for empty source")
	}
	if snap.Offered != 0 || !snap.Final || snap.SizeReport != nil {
		t.Errorf("empty snapshot = offered %d final %v report %v",
			snap.Offered, snap.Final, snap.SizeReport)
	}
}

// TestConfigValidation spot-checks New's rejections.
func TestConfigValidation(t *testing.T) {
	newSys := func(int) (online.Sampler, error) { return online.NewSystematic(10, 0) }
	bad := []Config{
		{Shards: 0, NewSampler: newSys},
		{Shards: 1},
		{Shards: 1, NewSampler: newSys, QueueDepth: -1},
		{Shards: 1, NewSampler: newSys, BatchSize: -1},
		{Shards: 1, NewSampler: newSys, WindowUS: -1},
		{Shards: 1, NewSampler: newSys, TopKReport: -1},
		{Shards: 1, NewSampler: newSys, TopKCapacity: -1},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); !errors.Is(err, ErrConfig) {
			t.Errorf("config %d: error = %v, want ErrConfig", i, err)
		}
	}
	// Evaluator/scheme bin mismatch.
	tr := smallTrace(t, 2)
	sizeEval, _ := evaluators(t, tr)
	if _, err := New(Config{
		Shards: 1, NewSampler: newSys,
		SizeScheme: bins.Interarrival(), // 5 bins vs the evaluator's 3
		SizeEval:   sizeEval,
	}); !errors.Is(err, ErrConfig) {
		t.Errorf("bin mismatch error = %v, want ErrConfig", err)
	}
}

// TestShardOfSpreadsAndPartitions checks the ingest kernel's flow hash
// is stable per key and actually uses more than one shard on diverse
// traffic.
func TestShardOfSpreadsAndPartitions(t *testing.T) {
	tr := smallTrace(t, 777)
	used := make(map[int]int)
	byKey := make(map[[13]byte]int)
	for s, items := range partitionUnit(tr.Packets, 4, srcUnit{}) {
		used[s] += len(items)
		for _, it := range items {
			pkt := it.pkt
			var key [13]byte
			copy(key[0:4], pkt.Src[:])
			copy(key[4:8], pkt.Dst[:])
			key[8] = byte(pkt.SrcPort)
			key[9] = byte(pkt.SrcPort >> 8)
			key[10] = byte(pkt.DstPort)
			key[11] = byte(pkt.DstPort >> 8)
			key[12] = byte(pkt.Protocol)
			if prev, ok := byKey[key]; ok && prev != s {
				t.Fatalf("flow key %x split across shards %d and %d", key, prev, s)
			}
			byKey[key] = s
		}
	}
	if len(used) < 2 {
		t.Errorf("only %d of 4 shards used on a diverse trace", len(used))
	}
}
