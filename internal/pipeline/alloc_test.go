package pipeline

import (
	"io"
	"math"
	"runtime"
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

// runAllocs counts the heap allocations of one run of n packets from
// src(n) through a one-shard 1-in-10 pipeline whose flows never expire,
// after checking the run selected every tenth packet.
func runAllocs(t *testing.T, n int, src func(n int) Source) uint64 {
	t.Helper()
	p, err := New(Config{
		Shards:        1,
		NewSampler:    func(int) (online.Sampler, error) { return online.NewSystematic(10, 0) },
		FlowTimeoutUS: 1 << 60, // flows never expire: no per-packet flow churn
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	s := src(n)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if err := p.Run(s); err != nil {
		t.Fatalf("Run: %v", err)
	}
	runtime.ReadMemStats(&after)
	// Systematic 1-in-10 from the first packet selects every tenth.
	if snap, ok := p.Latest(); !ok || snap.Selected != uint64(n/10) {
		t.Fatalf("run did not process all %d selected packets: %+v", n/10, snap)
	}
	return after.Mallocs - before.Mallocs
}

// sameAllocsAtEightfold fails unless a run of eight times the packets
// costs the same allocations as a run of short, give or take the
// runtime's own noise: under half an allocation per extra batch, so
// one allocation per batch fails.
func sameAllocsAtEightfold(t *testing.T, src func(n int) Source) {
	t.Helper()
	const short, long = 50_000, 400_000
	a, b := runAllocs(t, short, src), runAllocs(t, long, src)
	if slack := uint64((long - short) / DefaultBatchSize / 2); b > a+slack {
		t.Errorf("%d packets made %d allocations, %d packets %d (> +%d): the path allocates per batch",
			short, a, long, b, slack)
	} else {
		t.Logf("%d packets made %d allocations, %d packets %d", short, a, long, b)
	}
}

// TestPipelineHotPathAllocs pins the 0-steady-state-allocs/packet claim
// of the adapter→read→route→shard hot path on a per-packet source:
// recordAdapter encodes every batch into its one reused window, so a
// run's allocation count is its fixed startup cost (queues, flow
// entries, goroutines, final snapshot) and does not grow with the
// packet count.
func TestPipelineHotPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed under -race")
	}
	sameAllocsAtEightfold(t, func(n int) Source { return &cycleSource{n: n} })
}

// TestReplayerWindowsDoNotAllocate pins the in-memory raw path: a
// replay's record windows are views of the trace's own packets, so a
// run's allocation count is its fixed startup cost and does not grow
// with trace length.
func TestReplayerWindowsDoNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed under -race")
	}
	sameAllocsAtEightfold(t, func(n int) Source {
		tr := &trace.Trace{Packets: make([]trace.Packet, n)}
		src := &cycleSource{n: n}
		for i := range tr.Packets {
			tr.Packets[i], _ = src.Next()
		}
		return tr.Replay()
	})
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
		windows       int
		mixed         *Snapshot // the first window that is not all-new flows
	)
	p, err := New(Config{
		Shards:     1,
		NewSampler: func(int) (online.Sampler, error) { return online.NewSystematic(1, 0) },
		WindowUS:   perWindow * 10,
		OnSnapshot: func(s *Snapshot) {
			if windows == 0 {
				runtime.ReadMemStats(&before)
			}
			windows++
			if mixed == nil && (s.Selected != perWindow || s.FlowCounts.Flows != perWindow || s.FlowCounts.Singletons != perWindow) {
				mixed = s
			}
		},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := p.Run(&churnSource{n: n}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	runtime.ReadMemStats(&after)
	if windows != n/perWindow {
		t.Fatalf("run cut %d windows, want %d", windows, n/perWindow)
	}
	if s := mixed; s != nil {
		t.Fatalf("window %d is not all-new flows: selected %d, flows %+v", s.Seq, s.Selected, s.FlowCounts)
	}
	const measured = n - perWindow
	if allocs := after.Mallocs - before.Mallocs; allocs > measured/100 {
		t.Errorf("%d churn packets after the warm-up window made %d allocations (> %d): a miss path is allocating",
			measured, allocs, measured/100)
	}
}

// TestWindowCutAllocs pins the per-window path the packet-path tests
// above amortize away: barrier, scoring, shard cut, merge, Wire, encode
// and store append, and under Config.Adaptive the reader's control
// step. The same trace is cut into W and then 2W windows, every window
// going to a store as nsd -store sends it, so the difference between
// the two runs is W windows' worth of that path and nothing else. What
// is left is amortized: the collector's slabs start a chunk for the
// snapshot blocks, the float64 counts, the integer counts and TopK once
// every slabWindows windows, the shard's sketch a fresh report arena
// for its keys about once every 64 cuts, and an adaptive run's decision
// log grows by doubling — some 0.08 allocations a window, pinned at
// 0.25. The barriers and their shard slots are made by New
// (TestNewAllocs); Wire and the append add none
// (TestWireAppendDoesNotAllocate).
func TestWindowCutAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed under -race")
	}
	tr := smallTrace(t, 28)
	runAllocs := func(windowUS int64, adaptive bool) (allocs uint64, windows int) {
		sw, err := store.Open(t.TempDir(), store.Options{SyncWindowUS: -1})
		if err != nil {
			t.Fatalf("store.Open: %v", err)
		}
		cfg := Config{
			Shards:   1,
			WindowUS: windowUS,
			OnSnapshot: func(s *Snapshot) {
				if err := sw.AppendSnapshot(s.Wire("alloc-node")); err != nil {
					t.Errorf("window %d: AppendSnapshot: %v", s.Seq, err)
				}
			},
		}
		if adaptive {
			cfg.Adaptive = &AdaptiveConfig{MinK: 1, MaxK: 64, StartK: 10, TargetPhi: 0.25}
		} else {
			cfg.NewSampler = func(int) (online.Sampler, error) { return online.NewSystematic(10, 0) }
		}
		p, err := New(cfg)
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
		last, _ := p.Latest()
		if adaptive && !steered(p.Decisions()) {
			t.Fatalf("adaptive run at %d µs windows never moved k", windowUS)
		}
		return after.Mallocs - before.Mallocs, int(last.Seq)
	}
	// Two minutes of trace: some 1200 windows, then some 2400. The
	// runtime can only add allocations: the best of three pairs counts
	// the path.
	for _, adaptive := range []bool{false, true} {
		best := math.Inf(1)
		for range 3 {
			a, wa := runAllocs(100_000, adaptive)
			b, wb := runAllocs(50_000, adaptive)
			if wa < 1000 || wb < 2*wa-2 {
				t.Fatalf("runs cut %d and %d windows, want over 1000 and twice that", wa, wb)
			}
			best = min(best, (float64(b)-float64(a))/float64(wb-wa))
		}
		if best > 0.25 {
			t.Errorf("adaptive %v: %.2f allocations per extra window (> 0.25)", adaptive, best)
		} else {
			t.Logf("adaptive %v: %.2f allocations per extra window", adaptive, best)
		}
	}
}

// TestNewAllocs pins what New makes up front: the queues, every
// barrier with its shard slots and their top-K entries, each shard's
// aggregates and the item buffers. Each shard adds its aggregates and
// its channel, while the barriers' slots and entries come from one slab
// each and every shard's item buffers from one slab, at any shard
// count, so a per-barrier or per-shard buffer set made again shows as a
// step here.
func TestNewAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed under -race")
	}
	for _, c := range []struct {
		shards int
		want   float64
	}{{1, 27}, {2, 37}, {4, 57}} {
		cfg := Config{
			Shards:     c.shards,
			NewSampler: func(int) (online.Sampler, error) { return online.NewSystematic(10, 0) },
		}
		var err error
		if n := testing.AllocsPerRun(20, func() { _, err = New(cfg) }); n != c.want {
			t.Errorf("New at %d shards made %v allocations, want %v", c.shards, n, c.want)
		}
		if err != nil {
			t.Fatalf("New: %v", err)
		}
	}
}

// steered reports whether a control log ever moved k.
func steered(ds []AdaptiveDecision) bool {
	for _, d := range ds {
		if d.K != d.PrevK {
			return true
		}
	}
	return false
}

// TestFinishedPipelineHoldsNoWindowHistory pins that a pipeline keeps
// only its latest window: what a run publishes goes to OnSnapshot, so a
// long-running node's heap does not grow with the windows it has cut.
// The same 36-second stream cut into 4 windows and into 36 000 must
// leave a finished, still-referenced pipeline holding the same heap
// within 1 MB; a retained history costs some 600 B a window, 22 MB here.
func TestFinishedPipelineHoldsNoWindowHistory(t *testing.T) {
	const n = 72_000 // 500 µs apart
	held := func(windowUS int64) (heap int64, windows uint64) {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		p, err := New(Config{
			Shards:     1,
			NewSampler: func(int) (online.Sampler, error) { return online.NewSystematic(1, 0) },
			WindowUS:   windowUS,
		})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		if err := p.Run(&cycleSource{n: n}); err != nil {
			t.Fatalf("Run: %v", err)
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		last, _ := p.Latest()
		runtime.KeepAlive(p)
		return int64(after.HeapAlloc) - int64(before.HeapAlloc), last.Seq
	}
	few, wf := held(9_000_000)
	many, wm := held(1_000)
	if wf != 4 || wm != 36_000 {
		t.Fatalf("runs cut %d and %d windows, want 4 and 36000", wf, wm)
	}
	if many-few > 1<<20 {
		t.Errorf("a finished 36000-window run holds %d B more heap than a 4-window one (> 1 MiB)", many-few)
	} else {
		t.Logf("36000 windows hold %+d B of heap beside 4", many-few)
	}
}

// TestWireAppendDoesNotAllocate pins what TestWindowCutAllocs counts on:
// Wire inlines and its copy stays on the caller's stack, so stamping a
// merged snapshot with a node name and appending it to a warm store
// allocates nothing.
func TestWireAppendDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed under -race")
	}
	tr := smallTrace(t, 28)
	var snaps []*Snapshot
	p, err := New(Config{
		Shards:     2,
		NewSampler: func(int) (online.Sampler, error) { return online.NewSystematic(10, 0) },
		WindowUS:   1_000_000,
		OnSnapshot: func(s *Snapshot) { snaps = append(snaps, s) },
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := p.Run(tr.Replay()); err != nil {
		t.Fatalf("Run: %v", err)
	}
	s := snaps[len(snaps)/2]
	if s.SizeReport == nil || s.IatReport == nil || len(s.TopK) == 0 {
		t.Fatalf("window %d is missing a report or its top-k: %+v", s.Seq, s)
	}
	sw, err := store.Open(t.TempDir(), store.Options{SyncWindowUS: -1})
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	defer sw.Close()
	// Warm the store: its encode scratch reaches its size, and it seals
	// a full segment and opens the next, whose leaf-hash slice keeps the
	// first's capacity. The 100 appends measured then neither grow that
	// slice nor cross a segment boundary, whose new file allocates.
	for range store.DefaultSegmentRecords + 1 {
		if err := sw.AppendSnapshot(s.Wire("alloc-node")); err != nil {
			t.Fatalf("AppendSnapshot: %v", err)
		}
	}
	var appendErr error
	if n := mallocs(100, func() { appendErr = sw.AppendSnapshot(s.Wire("alloc-node")) }); n != 0 {
		t.Errorf("100 AppendSnapshot(s.Wire(node)) calls allocate %d times, want 0", n)
	}
	if appendErr != nil {
		t.Fatalf("AppendSnapshot: %v", appendErr)
	}
}

// mallocs counts the heap allocations of n calls of f exactly, where
// testing.AllocsPerRun's integer mean hides fewer than one a call.
func mallocs(n int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range n {
		f()
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}
