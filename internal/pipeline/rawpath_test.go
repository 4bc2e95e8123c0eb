package pipeline

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"netsample/internal/flows"
	"netsample/internal/online"
	"netsample/internal/packet"
	"netsample/internal/trace"
)

// The mmap reader must satisfy every source form, the replayer the
// native one.
var (
	_ Source         = (*trace.MapReader)(nil)
	_ BatchSource    = (*trace.MapReader)(nil)
	_ RawBatchSource = (*trace.MapReader)(nil)
	_ RawBatchSource = (*trace.Replayer)(nil)
)

// TestDecodeBatchEquivalence cross-checks the exported two-pass kernel
// against the same reference as partitionRaw — trace round-trip decode,
// per-packet shardIndex, and explicit gap chaining — over randomized
// packets, shard counts, and window offsets.
func TestDecodeBatchEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(1993))
	pkts := randomPackets(rng, 300)
	var buf bytes.Buffer
	if err := trace.Write(&buf, &trace.Trace{Packets: pkts}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()[trace.HeaderLen:]

	for _, nshards := range []int{1, 2, 4, 7, 256} {
		for _, window := range []struct{ from, to int }{
			{0, len(pkts)}, {0, 1}, {17, 113}, {len(pkts) - 3, len(pkts)},
		} {
			n := window.to - window.from
			dst := make([]trace.Packet, n)
			shards := make([]uint8, n)
			gaps := make([]int64, n)
			prevUS := int64(-5)
			if window.from > 0 {
				prevUS = pkts[window.from-1].Time
			}
			got := DecodeBatch(dst, shards, gaps,
				raw[window.from*trace.RecordLen:window.to*trace.RecordLen], prevUS, nshards)
			if got != n {
				t.Fatalf("nshards=%d window=%v: decoded %d, want %d", nshards, window, got, n)
			}
			prev := prevUS
			for i := 0; i < n; i++ {
				ref := pkts[window.from+i]
				if dst[i] != ref {
					t.Fatalf("nshards=%d window=%v: packet %d decoded %+v, want %+v",
						nshards, window, i, dst[i], ref)
				}
				if want := uint8(shardIndex(&ref, nshards)); shards[i] != want {
					t.Fatalf("nshards=%d window=%v: packet %d shard %d, want %d",
						nshards, window, i, shards[i], want)
				}
				if want := ref.Time - prev; gaps[i] != want {
					t.Fatalf("nshards=%d window=%v: packet %d gap %d, want %d",
						nshards, window, i, gaps[i], want)
				}
				prev = ref.Time
			}
		}
	}

	// Short raw windows decode only the complete records.
	dst := make([]trace.Packet, 4)
	shards := make([]uint8, 4)
	gaps := make([]int64, 4)
	if got := DecodeBatch(dst, shards, gaps, raw[:2*trace.RecordLen+13], 0, 4); got != 2 {
		t.Fatalf("partial window decoded %d records, want 2", got)
	}

	// A shard count whose indices would not fit uint8 (or that is no
	// count at all) is refused by name, not truncated into wrong placements.
	for _, nshards := range []int{0, 300} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "[1, 256]") {
					t.Errorf("nshards=%d: recovered %q, want a panic naming the [1, 256] bound", nshards, msg)
				}
			}()
			DecodeBatch(dst, shards, gaps, raw[:4*trace.RecordLen], 0, nshards)
		}()
	}
}

// writeTraceFile serializes tr to a temp NSTR file and returns the path.
func writeTraceFile(t *testing.T, tr *trace.Trace) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "pipe.nstr")
	var buf bytes.Buffer
	if err := trace.Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// tornSource is a BatchSource that fails with err alongside its last
// packets: n > 0 and a non-EOF error in one return.
type tornSource struct {
	pkts []trace.Packet
	err  error
}

func (s *tornSource) NextBatch(dst []trace.Packet) (int, error) {
	n := copy(dst, s.pkts)
	s.pkts = s.pkts[n:]
	if len(s.pkts) == 0 {
		return n, s.err
	}
	return n, nil
}

// Next makes tornSource a Source; Run reads it through NextBatch.
func (s *tornSource) Next() (trace.Packet, error) {
	var one [1]trace.Packet
	_, err := s.NextBatch(one[:])
	return one[0], err
}

// TestSourceEquivalenceSnapshots is the edge adapter's pin: every entry
// form — the MapReader's and the in-memory Replayer's own record
// windows, and the StreamReader, a torn BatchSource and a
// per-packet-only Source through the adapter — produces byte-identical
// snapshot sequences on the same trace file, windows, shards, and
// seeds: barrier positions, gap observations, sampling decisions, and
// scored reports all agree bit-for-bit. A
// source that fails alongside its last packets still delivers them, and
// Run surfaces the error after the drain.
func TestSourceEquivalenceSnapshots(t *testing.T) {
	tr := smallTrace(t, 991)
	path := writeTraceFile(t, tr)

	base, err := runStratified(t, tr, 11, 4, tr.Replay())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(base) < 2 {
		t.Fatalf("want multiple windows, got %d", len(base))
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sr, err := trace.NewStreamReader(f)
	if err != nil {
		t.Fatal(err)
	}
	mr, err := trace.OpenMap(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mr.Close()
	sentinel := errors.New("stream torn down")

	for _, c := range []struct {
		name    string
		src     Source
		wantErr error
	}{
		{"StreamReader", sr, nil},
		{"MapReader", mr, nil},
		{"per-packet", &perPacketOnly{r: tr.Replay()}, nil},
		{"torn", &tornSource{pkts: tr.Packets, err: sentinel}, sentinel},
	} {
		got, err := runStratified(t, tr, 11, 4, c.src)
		if !errors.Is(err, c.wantErr) {
			t.Fatalf("%s: Run error = %v, want %v", c.name, err, c.wantErr)
		}
		if len(got) != len(base) {
			t.Fatalf("%s: %d snapshots, want %d", c.name, len(got), len(base))
		}
		for i := range base {
			assertSnapshotsEqual(t, i, base[i], got[i])
		}
	}
}

// TestManyShardsSourceEquivalence runs 300 shards — more than a uint8
// shard index could name — through both entry forms: the MapReader-fed
// run equals the Replayer-fed one snapshot for snapshot, nothing is
// lost, and every flow stays on one shard.
func TestManyShardsSourceEquivalence(t *testing.T) {
	const shards = 300
	tr := smallTrace(t, 4242)
	run := func(src Source) []*Snapshot {
		p, err := New(Config{
			Shards:     shards,
			QueueDepth: 2,
			BatchSize:  64,
			NewSampler: func(int) (online.Sampler, error) { return online.NewSystematic(1, 0) },
			WindowUS:   30_000_000,
		})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		if err := p.Run(src); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return p.Snapshots()
	}
	base := run(tr.Replay())
	mr, err := trace.OpenMap(writeTraceFile(t, tr))
	if err != nil {
		t.Fatal(err)
	}
	defer mr.Close()
	mapped := run(mr)
	if len(base) < 2 || len(mapped) != len(base) {
		t.Fatalf("%d replayed and %d mapped snapshots, want equal and several", len(base), len(mapped))
	}
	var offered, flowCount uint64
	for i, s := range base {
		assertSnapshotsEqual(t, i, s, mapped[i])
		if s.Offered != s.Processed {
			t.Errorf("window %d: offered %d != processed %d under Block", i, s.Offered, s.Processed)
		}
		offered += s.Offered
		flowCount += uint64(s.Flows.Flows)
	}
	if offered != uint64(tr.Len()) {
		t.Errorf("offered %d, want trace length %d", offered, tr.Len())
	}
	// Every packet is selected (k=1), so per-window flow counts summed
	// over shards equal a single table's only if no flow is split.
	single, err := flows.NewTable(DefaultFlowTimeoutUS)
	if err != nil {
		t.Fatal(err)
	}
	var want uint64
	next := tr.Packets[0].Time + 30_000_000
	for _, pkt := range tr.Packets {
		for pkt.Time >= next {
			want += uint64(flows.CountFlows(single.Flush()).Flows)
			next += 30_000_000
		}
		single.Add(pkt)
	}
	want += uint64(flows.CountFlows(single.Flush()).Flows)
	if flowCount != want {
		t.Errorf("300 shards counted %d flows, one table %d: a flow was split across shards", flowCount, want)
	}
}

// TestParallelIngestDeterministicRaw extends the determinism pin to the
// mapped source: a MapReader-fed 4-shard run is bit-identical to the
// Replayer-fed baseline.
func TestParallelIngestDeterministicRaw(t *testing.T) {
	tr := smallTrace(t, 777)
	base, err := runStratified(t, tr, 7, 4, tr.Replay())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	mr, err := trace.OpenMap(writeTraceFile(t, tr))
	if err != nil {
		t.Fatal(err)
	}
	defer mr.Close()
	got, err := runStratified(t, tr, 7, 4, mr)
	if err != nil {
		t.Fatalf("mapped: Run: %v", err)
	}
	if len(got) != len(base) {
		t.Fatalf("mapped: %d snapshots, want %d", len(got), len(base))
	}
	for i := range base {
		assertSnapshotsEqual(t, i, base[i], got[i])
	}
}

// TestMapReaderHotPathAllocs pins the mapped source's allocation budget
// end to end: a MapReader-fed pipeline run allocates only its fixed
// startup cost — the mapped region is the packet storage, and the
// per-packet path stays at zero.
func TestMapReaderHotPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed under -race")
	}
	const n = 200_000
	pkts := make([]trace.Packet, n)
	for i := range pkts {
		pkts[i] = trace.Packet{
			Time:    int64(i) * 500,
			Size:    uint16(40 + (i%8)*64),
			Src:     packet.Addr{10, 0, 0, byte(i % 8)},
			Dst:     packet.Addr{10, 0, 1, byte(i % 4)},
			SrcPort: uint16(1024 + i%8),
			DstPort: 80,
		}
	}
	path := writeTraceFile(t, &trace.Trace{Packets: pkts})
	mr, err := trace.OpenMap(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mr.Close()
	p, err := New(Config{
		Shards:        2,
		NewSampler:    func(int) (online.Sampler, error) { return online.NewSystematic(10, 0) },
		FlowTimeoutUS: 1 << 60, // flows never expire: no per-packet flow churn
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if err := p.Run(mr); err != nil {
		t.Fatalf("Run: %v", err)
	}
	runtime.ReadMemStats(&after)
	allocs := after.Mallocs - before.Mallocs
	if allocs > n/100 {
		t.Errorf("raw-path run of %d packets made %d allocations (> %d): hot path is allocating",
			n, allocs, n/100)
	}
	snap, ok := p.Latest()
	if !ok || snap.Processed != n {
		t.Fatalf("run did not process all packets: %+v", snap)
	}
}
