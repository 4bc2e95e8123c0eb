package pipeline

import (
	"errors"
	"io"
	"math"
	"testing"

	"netsample/internal/bins"
	"netsample/internal/core"
	"netsample/internal/metrics"
	"netsample/internal/online"
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
	// k = 1 selects every offered packet; each must reach a shard.
	if snap.Selected != 101 {
		t.Errorf("lost packets: selected %d of 101", snap.Selected)
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
		{Shards: 1, NewSampler: newSys, Policy: Block + 1},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); !errors.Is(err, ErrConfig) {
			t.Errorf("config %d: error = %v, want ErrConfig", i, err)
		}
	}
	// Evaluator/scheme bin mismatch: a size evaluator built on a 2-bin
	// scheme, where the pipeline bins sizes into 3.
	tr := smallTrace(t, 2)
	halves, err := bins.NewEdged("halves", []float64{100})
	if err != nil {
		t.Fatal(err)
	}
	wrong, err := core.NewEvaluator(tr, core.TargetSize, halves)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Shards: 1, NewSampler: newSys, SizeEval: wrong}); !errors.Is(err, ErrConfig) {
		t.Errorf("bin mismatch error = %v, want ErrConfig", err)
	}
}

// TestShardOfSpreadsAndPartitions checks the reader's flow hash is
// stable per key and actually uses more than one shard on diverse
// traffic, with every selected packet placed on exactly one shard.
func TestShardOfSpreadsAndPartitions(t *testing.T) {
	tr := smallTrace(t, 777)
	used := make(map[int]int)
	total := 0
	byKey := make(map[[13]byte]int)
	routes, _ := readerRoutes(t, Config{
		Shards:     4,
		NewSampler: func(int) (online.Sampler, error) { return online.NewSystematic(1, 0) },
	}, tr.Replay())
	for s, elems := range routes {
		for _, e := range elems {
			if e.cut != 0 {
				continue
			}
			used[s]++
			total++
			pkt := e.it.pkt
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
	if total != tr.Len() {
		t.Errorf("partitioned %d of %d selected packets", total, tr.Len())
	}
	if len(used) < 2 {
		t.Errorf("only %d of 4 shards used on a diverse trace", len(used))
	}
}
