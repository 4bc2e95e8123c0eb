package pipeline

import (
	"io"
	"runtime"
	"sync"
	"testing"

	"netsample/internal/online"
	"netsample/internal/packet"
	"netsample/internal/store"
	"netsample/internal/trace"
)

// cycleSource synthesizes n packets cycling through a small fixed flow
// set with monotonically increasing timestamps — steady-state traffic
// with no new-flow allocations after warm-up.
type cycleSource struct {
	n   int
	pos int
}

func (c *cycleSource) Next() (trace.Packet, error) {
	if c.pos >= c.n {
		return trace.Packet{}, io.EOF
	}
	i := c.pos
	c.pos++
	return trace.Packet{
		Time:    int64(i) * 500,
		Size:    uint16(40 + (i%8)*64),
		Src:     packet.Addr{10, 0, 0, byte(i % 8)},
		Dst:     packet.Addr{10, 0, 1, byte(i % 4)},
		SrcPort: uint16(1024 + i%8),
		DstPort: 80,
	}, nil
}

// TestPipelineHotPathAllocs pins the 0-steady-state-allocs/packet claim
// of the ingest→shard→sample hot path: a long run's total heap
// allocation count, measured end to end, stays bounded by the fixed
// startup cost (queues, flow entries, goroutines, final snapshot) plus
// the edge adapter's one record window per BatchSize packets — below
// one allocation per hundred packets.
func TestPipelineHotPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed under -race")
	}
	const n = 200_000
	p, err := New(Config{
		Shards:        1,
		NewSampler:    func(int) (online.Sampler, error) { return online.NewSystematic(10, 0) },
		FlowTimeoutUS: 1 << 60, // flows never expire: no per-packet flow churn
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	src := &cycleSource{n: n}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if err := p.Run(src); err != nil {
		t.Fatalf("Run: %v", err)
	}
	runtime.ReadMemStats(&after)
	allocs := after.Mallocs - before.Mallocs
	if allocs > n/100 {
		t.Errorf("pipeline run of %d packets made %d allocations (> %d): hot path is allocating",
			n, allocs, n/100)
	}
	snap, ok := p.Latest()
	if !ok || snap.Processed != n {
		t.Fatalf("run did not process all packets: %+v", snap)
	}
}

// TestReplayerWindowsDoNotAllocate pins the in-memory raw path: a
// Replayer's record windows are views of the trace's own packets, so a
// run's allocation count is its fixed startup cost and does not grow
// with trace length — eight times the packets (some 1370 more windows,
// one allocation each if they went through the adapter) cost the same,
// give or take the runtime's own noise.
func TestReplayerWindowsDoNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed under -race")
	}
	runAllocs := func(n int) uint64 {
		tr := &trace.Trace{Packets: make([]trace.Packet, n)}
		src := &cycleSource{n: n}
		for i := range tr.Packets {
			tr.Packets[i], _ = src.Next()
		}
		p, err := New(Config{
			Shards:        1,
			NewSampler:    func(int) (online.Sampler, error) { return online.NewSystematic(10, 0) },
			FlowTimeoutUS: 1 << 60,
		})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if err := p.Run(tr.Replay()); err != nil {
			t.Fatalf("Run: %v", err)
		}
		runtime.ReadMemStats(&after)
		if snap, ok := p.Latest(); !ok || snap.Processed != uint64(n) {
			t.Fatalf("run did not process all %d packets: %+v", n, snap)
		}
		return after.Mallocs - before.Mallocs
	}
	const short, long = 50_000, 400_000
	a, b := runAllocs(short), runAllocs(long)
	if slack := uint64((long - short) / DefaultBatchSize / 2); b > a+slack {
		t.Errorf("%d packets made %d allocations, %d packets %d (> +%d): the replay path allocates per window",
			short, a, long, b, slack)
	}
}

// churnSource synthesizes n packets that each open a new 5-tuple, 10 µs
// apart: every selected packet is a flow-table insert and, once the
// sketch is full, a Space-Saving eviction — the flood shape, where no
// packet ever takes the update branch.
type churnSource struct {
	n   int
	pos int
}

func (c *churnSource) Next() (trace.Packet, error) {
	if c.pos >= c.n {
		return trace.Packet{}, io.EOF
	}
	i := c.pos
	c.pos++
	return trace.Packet{
		Time:    int64(i) * 10,
		Size:    40,
		Src:     packet.Addr{byte(i >> 24), byte(i >> 16), byte(i >> 8), byte(i)},
		Dst:     packet.Addr{10, 0, 1, 1},
		SrcPort: uint16(i),
		DstPort: 80,
	}, nil
}

// TestPipelineChurnPathAllocs pins the miss paths the cycling source
// never reaches. With every packet selected, every packet a new flow
// and ten windows of equal size, the first window sizes the flow slab,
// its key map and the sketch's key buffers; from its snapshot on, the
// whole rest of the run — inserts, evictions and nine window cuts —
// stays under one allocation per hundred packets.
func TestPipelineChurnPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed under -race")
	}
	const (
		n         = 200_000
		perWindow = 20_000
	)
	var (
		before, after runtime.MemStats
		warm          sync.Once
	)
	p, err := New(Config{
		Shards:     1,
		NewSampler: func(int) (online.Sampler, error) { return online.NewSystematic(1, 0) },
		WindowUS:   perWindow * 10,
		OnSnapshot: func(*Snapshot) { warm.Do(func() { runtime.ReadMemStats(&before) }) },
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := p.Run(&churnSource{n: n}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	runtime.ReadMemStats(&after)
	snaps := p.Snapshots()
	if len(snaps) != n/perWindow {
		t.Fatalf("run cut %d windows, want %d", len(snaps), n/perWindow)
	}
	for _, s := range snaps {
		if s.Selected != perWindow || s.Flows.Flows != perWindow || s.Flows.Singletons != perWindow {
			t.Fatalf("window %d is not all-new flows: selected %d, flows %+v", s.Seq, s.Selected, s.Flows)
		}
	}
	const measured = n - perWindow
	if allocs := after.Mallocs - before.Mallocs; allocs > measured/100 {
		t.Errorf("%d churn packets after the warm-up window made %d allocations (> %d): a miss path is allocating",
			measured, allocs, measured/100)
	}
}

// TestWindowCutAllocs pins the per-window path the packet-path tests
// above amortize away: barrier, shard cut, merge, score, Wire, encode
// and store append. The same trace is cut into W and then 2W windows,
// every window going to a store as nsd -store sends it, so the
// difference between the two runs is W windows' worth of that path and
// nothing else. Each costs at most eight allocations (it measures just
// under seven: the snapshot block, its counts and TopK; the wire block,
// its counts and TopK; the shard's key string).
func TestWindowCutAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed under -race")
	}
	tr := smallTrace(t, 28)
	sizeEval, iatEval := evaluators(t, tr)
	runAllocs := func(windowUS int64) (allocs uint64, windows int) {
		sw, err := store.Open(t.TempDir(), store.Options{SyncWindowUS: -1})
		if err != nil {
			t.Fatalf("store.Open: %v", err)
		}
		p, err := New(Config{
			Shards:     1,
			NewSampler: func(int) (online.Sampler, error) { return online.NewSystematic(10, 0) },
			WindowUS:   windowUS,
			SizeEval:   sizeEval,
			IatEval:    iatEval,
			OnSnapshot: func(s *Snapshot) {
				if err := sw.AppendSnapshot(s.Wire("alloc-node")); err != nil {
					t.Errorf("window %d: AppendSnapshot: %v", s.Seq, err)
				}
			},
		})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if err := p.Run(tr.Replay()); err != nil {
			t.Fatalf("Run: %v", err)
		}
		runtime.ReadMemStats(&after)
		if err := sw.Close(); err != nil {
			t.Fatalf("store close: %v", err)
		}
		return after.Mallocs - before.Mallocs, len(p.Snapshots())
	}
	// Two minutes of trace: some 1200 windows, then some 2400.
	a, wa := runAllocs(100_000)
	b, wb := runAllocs(50_000)
	if wa < 1000 || wb < 2*wa-2 {
		t.Fatalf("runs cut %d and %d windows, want over 1000 and twice that", wa, wb)
	}
	if extra := uint64(wb - wa); b > a+8*extra {
		t.Errorf("%d windows made %d allocations, %d windows %d: %.2f per extra window (> 8)",
			wa, a, wb, b, float64(b-a)/float64(extra))
	} else {
		t.Logf("%.2f allocations per extra window", (float64(b)-float64(a))/float64(extra))
	}
}
