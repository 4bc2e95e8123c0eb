package pipeline

import (
	"io"
	"sync"
	"testing"

	"netsample/internal/dist"
	"netsample/internal/online"
	"netsample/internal/trace"
)

// runEpochConfig runs a 4-shard stratified pipeline over tr with fully
// adversarial sequencing parameters — caller-chosen batch size, queue
// depth, and worker count — and returns its snapshots.
func runEpochConfig(t *testing.T, tr *trace.Trace, workers, batch, depth int) []*Snapshot {
	t.Helper()
	root := dist.NewRNG(11)
	rngs := make([]*dist.RNG, 4)
	for i := range rngs {
		rngs[i] = root.Split()
	}
	p, err := New(Config{
		Shards:        4,
		IngestWorkers: workers,
		BatchSize:     batch,
		QueueDepth:    depth,
		WindowUS:      15_000_000,
		NewSampler: func(shard int) (online.Sampler, error) {
			return online.NewStratified(50, rngs[shard])
		},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := p.Run(tr.Replay()); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return p.Snapshots()
}

// TestEpochBoundaryDeterministic is the epoch-sequencing adversarial
// determinism test: single-packet and tiny batches with depth-1 rings
// maximize epoch-boundary interleavings — every unit forces a fresh
// counter publish, rings are always near full/empty so shard workers
// constantly alternate between ring consumption, run-skipping on the
// epoch counter, and parked epoch waits — and windowing slices barrier
// fragments between them. Snapshots must stay bit-identical to the
// one-worker run for every combination.
func TestEpochBoundaryDeterministic(t *testing.T) {
	tr := smallTrace(t, 777)
	for _, batch := range []int{1, 3} {
		base := runEpochConfig(t, tr, 1, batch, 1)
		for _, workers := range []int{2, 3, 5} {
			got := runEpochConfig(t, tr, workers, batch, 1)
			if len(got) != len(base) {
				t.Fatalf("batch=%d workers=%d: %d snapshots, want %d",
					batch, workers, len(got), len(base))
			}
			for i := range base {
				assertSnapshotsEqual(t, i, base[i], got[i])
			}
		}
	}
}

// monoSource yields n packets of one 5-tuple at a fixed cadence: every
// packet hashes to the same shard, so every other shard's rings should
// see no data traffic at all.
type monoSource struct {
	n    int
	sent int
}

func monoPacket(i int) trace.Packet {
	return trace.Packet{
		Time:     int64(i) * 1000,
		Size:     512,
		Src:      [4]byte{10, 0, 0, 1},
		Dst:      [4]byte{10, 0, 0, 2},
		SrcPort:  4242,
		DstPort:  80,
		Protocol: 6,
	}
}

func (s *monoSource) Next() (trace.Packet, error) {
	if s.sent >= s.n {
		return trace.Packet{}, io.EOF
	}
	s.sent++
	return monoPacket(s.sent - 1), nil
}

// TestEpochPublishBound is the acceptance counter test for epoch
// sequencing: progress costs O(workers) atomic stores per batch, not
// O(workers × shards) ring messages. With single-flow traffic on a
// 4-shard / 2-worker pipeline, the three shards that never receive a
// packet must see exactly one ring message per worker for the entire
// run — the final barrier fragment — and the workers' epoch counters
// must record exactly one progress store per unit (plus one per
// barrier fragment and one exit sentinel each). Under the old
// per-unit marker broadcast every unit pushed into all 8 rings; any
// regression toward that shows up as extra pushes here.
func TestEpochPublishBound(t *testing.T) {
	const (
		npkts   = 1000
		batch   = 8
		workers = 2
		shards  = 4
	)
	p, err := New(Config{
		Shards:        shards,
		IngestWorkers: workers,
		BatchSize:     batch,
		NewSampler: func(int) (online.Sampler, error) {
			return online.NewSystematic(10, 0)
		},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := p.Run(&monoSource{n: npkts}); err != nil {
		t.Fatalf("Run: %v", err)
	}

	pkt := monoPacket(0)
	hot := shardIndex(&pkt, shards)
	units := npkts / batch // batch divides npkts evenly
	var dataPushes, stores uint64
	for w, ig := range p.ingest {
		stores += ig.epoch.stores
		for s := range ig.out {
			pushes := ig.out[s].pushes
			if s == hot {
				dataPushes += pushes - 1 // minus the barrier fragment
				continue
			}
			if pushes != 1 {
				t.Errorf("worker %d -> shard %d: %d pushes, want exactly 1 (the final barrier fragment)",
					w, s, pushes)
			}
		}
	}
	if dataPushes != uint64(units) {
		t.Errorf("data pushes to hot shard = %d, want %d (one per unit)", dataPushes, units)
	}
	// One store per data unit, one per barrier fragment (workers of
	// them), one exit sentinel per worker.
	wantStores := uint64(units + workers + workers)
	if stores != wantStores {
		t.Errorf("epoch stores = %d, want %d (units + barrier frags + sentinels)", stores, wantStores)
	}
	// The headline bound: total progress publishes for the whole run
	// are O(units + workers), nowhere near the units×shards of the old
	// marker broadcast.
	if limit := uint64(units + 2*workers); stores > limit {
		t.Errorf("progress publishes %d exceed O(workers) bound %d", stores, limit)
	}
	snap, ok := p.Latest()
	if !ok || snap.Processed != npkts {
		t.Fatalf("snapshot processed = %v, want %d", snap, npkts)
	}
}

// TestEpochWaitParkWake hammers the epoch counter's park/wake
// handshake: a zero spin budget forces the waiter to park on every
// wait, while the advancer publishes one sequence at a time, so each
// round crosses the parked-flag / broadcast window. Run under -race
// this pins the Dekker-style flag protocol (epoch.advance vs
// epoch.wait) just as the ring stress tests pin the ring's.
func TestEpochWaitParkWake(t *testing.T) {
	const rounds = 2000
	e := newEpoch()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		sp := spinState{} // budget 0: always park
		for seq := uint64(0); seq < rounds; seq++ {
			if d := e.wait(seq, &sp); d <= seq {
				t.Errorf("wait(%d) returned %d", seq, d)
				return
			}
		}
		if d := e.wait(rounds+100, &sp); d != epochClosed {
			t.Errorf("wait past end returned %d, want sentinel", d)
		}
	}()
	for v := uint64(1); v <= rounds; v++ {
		e.advance(v)
	}
	e.advance(epochClosed)
	wg.Wait()
	if e.stores != rounds+1 {
		t.Errorf("stores = %d, want %d", e.stores, rounds+1)
	}
}
