package pipeline

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"netsample/internal/online"
	"netsample/internal/packet"
	"netsample/internal/trace"
)

// The mmap reader must satisfy both source forms, the replayer the
// native one.
var (
	_ Source         = (*trace.MapReader)(nil)
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
