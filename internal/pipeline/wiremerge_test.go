package pipeline

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"testing"

	"netsample/internal/collect"
	"netsample/internal/dist"
	"netsample/internal/nnstat"
)

func wireSnap(node string, seq uint64, startUS, endUS int64, bins []uint64, topk ...nnstat.Entry) *collect.Snapshot {
	return &collect.Snapshot{
		Node:          node,
		Seq:           seq,
		WindowStartUS: startUS,
		WindowEndUS:   endUS,
		Shards:        2,
		Offered:       100,
		Processed:     90,
		Selected:      9,
		Dropped:       10,
		SizeCounts:    bins,
		TopK:          topk,
	}
}

func TestMergeWireSumsAndSpans(t *testing.T) {
	a := wireSnap("n1", 3, 0, 1000, []uint64{1, 2, 3},
		nnstat.Entry{Key: "f1", Count: 10, MaxError: 1},
		nnstat.Entry{Key: "f2", Count: 5})
	b := wireSnap("n1", 4, 1000, 2000, []uint64{10, 20, 30},
		nnstat.Entry{Key: "f2", Count: 7, MaxError: 2},
		nnstat.Entry{Key: "f3", Count: 4})
	m, err := MergeWire([]*collect.Snapshot{a, b}, 0)
	if err != nil {
		t.Fatalf("MergeWire: %v", err)
	}
	if m.Node != "n1" {
		t.Fatalf("Node = %q, want n1 (all inputs agree)", m.Node)
	}
	if m.Seq != 4 || m.WindowStartUS != 0 || m.WindowEndUS != 2000 {
		t.Fatalf("window meta: seq %d, %d..%d", m.Seq, m.WindowStartUS, m.WindowEndUS)
	}
	if m.Offered != 200 || m.Dropped != 20 {
		t.Fatalf("counters did not sum: %+v", m)
	}
	for i, want := range []uint64{11, 22, 33} {
		if m.SizeCounts[i] != want {
			t.Fatalf("bin %d = %d, want %d", i, m.SizeCounts[i], want)
		}
	}
	// f2 recurs across both windows: its counts and error bounds sum,
	// and it outranks f1.
	want := []nnstat.Entry{
		{Key: "f2", Count: 12, MaxError: 2},
		{Key: "f1", Count: 10, MaxError: 1},
		{Key: "f3", Count: 4},
	}
	if len(m.TopK) != len(want) {
		t.Fatalf("top-k = %+v, want %+v", m.TopK, want)
	}
	for i := range want {
		if m.TopK[i] != want[i] {
			t.Fatalf("top-k[%d] = %+v, want %+v", i, m.TopK[i], want[i])
		}
	}
}

func TestMergeWireNodeAndTruncation(t *testing.T) {
	var snaps []*collect.Snapshot
	for i := 0; i < 3; i++ {
		snaps = append(snaps, wireSnap("node-a", 1, 0, 100, nil,
			nnstat.Entry{Key: string(rune('a' + i)), Count: uint64(10 - i)}))
	}
	snaps[2].Node = "node-b"
	m, err := MergeWire(snaps, 2)
	if err != nil {
		t.Fatalf("MergeWire: %v", err)
	}
	if m.Node != "merged" {
		t.Fatalf("Node = %q, want merged (inputs disagree)", m.Node)
	}
	if len(m.TopK) != 2 || m.TopK[0].Key != "a" || m.TopK[1].Key != "b" {
		t.Fatalf("truncated top-k = %+v", m.TopK)
	}
}

func TestMergeWireErrors(t *testing.T) {
	if _, err := MergeWire(nil, 0); !errors.Is(err, ErrMergeWire) {
		t.Fatalf("empty merge = %v, want ErrMergeWire", err)
	}
	a := wireSnap("n", 1, 0, 1, []uint64{1, 2}, nnstat.Entry{})
	b := wireSnap("n", 2, 1, 2, []uint64{1, 2, 3}, nnstat.Entry{})
	if _, err := MergeWire([]*collect.Snapshot{a, b}, 0); !errors.Is(err, ErrMergeWire) {
		t.Fatalf("bin mismatch = %v, want ErrMergeWire", err)
	}
}

// randomWireSet derives a set of wire snapshots from one seed, in one
// of four regimes (seed % 4): (0) a small key space and counts of 1–2,
// so keys recur across windows and tie on count; (1) duplicate keys
// inside one window and frequent empty TopK lists; (2) as 0, with one
// window's histogram scheme differing from the first's; (3) a wide space
// of 13-byte keys, mostly distinct, as a fine-windows store holds. Nodes
// disagree now and then, and the empty key is one of the keys.
func randomWireSet(seed uint64) []*collect.Snapshot {
	rng := dist.NewRNG(seed)
	regime := seed % 4
	keySpace, maxCount := 1+rng.IntN(12), uint64(2)
	if regime == 3 {
		keySpace, maxCount = 1<<16, 1<<40
	}
	key := func() string {
		i := rng.IntN(keySpace)
		if i == 0 && regime != 3 {
			return ""
		}
		var k [13]byte
		k[0], k[1], k[12] = byte(i), byte(i>>8), byte(seed)
		return string(k[:])
	}
	n := 1 + rng.IntN(24)
	bad := -1
	if regime == 2 {
		bad = rng.IntN(n)
	}
	snaps := make([]*collect.Snapshot, n)
	for w := range snaps {
		nSize, nIat := 3, 5
		if w == bad {
			nSize += 1 + rng.IntN(2)
		}
		s := &collect.Snapshot{
			Node:          fmt.Sprintf("n%d", rng.IntN(2)*rng.IntN(2)),
			Seq:           rng.Uint64N(1 << 20),
			WindowStartUS: rng.Int64N(1 << 30),
			Final:         rng.IntN(8) == 0,
			Shards:        uint32(1 + rng.IntN(4)),
			Offered:       rng.Uint64N(1 << 30),
			Processed:     rng.Uint64N(1 << 30),
			Selected:      rng.Uint64N(1 << 20),
			Dropped:       rng.Uint64N(1 << 10),
			SizeCounts:    make([]uint64, nSize),
			IatCounts:     make([]uint64, nIat),
			ActiveFlows:   rng.Uint64N(100),
		}
		s.WindowEndUS = s.WindowStartUS + rng.Int64N(1<<20)
		for b := range s.SizeCounts {
			s.SizeCounts[b] = rng.Uint64N(1000)
		}
		for b := range s.IatCounts {
			s.IatCounts[b] = rng.Uint64N(1000)
		}
		s.FlowCounts.Flows = rng.Uint64N(1000)
		s.FlowCounts.Packets = rng.Uint64N(1 << 20)
		s.FlowCounts.Bytes = rng.Uint64N(1 << 30)
		s.FlowCounts.Singletons = rng.Uint64N(1000)
		entries := rng.IntN(10)
		if regime == 1 && rng.IntN(3) == 0 {
			entries = 0
		}
		for i := 0; i < entries; i++ {
			e := nnstat.Entry{Key: key(), Count: 1 + rng.Uint64N(maxCount), MaxError: rng.Uint64N(3)}
			if regime == 1 && i > 0 && rng.IntN(2) == 0 {
				e.Key = s.TopK[rng.IntN(i)].Key
			}
			s.TopK = append(s.TopK, e)
		}
		snaps[w] = s
	}
	return snaps
}

// encodeMerged renders a merge result for comparison: the snapshot's
// wire bytes, or the error text.
func encodeMerged(m *collect.Snapshot, err error) string {
	if err != nil {
		return fmt.Sprintf("error (ErrMergeWire %t): %v", errors.Is(err, ErrMergeWire), err)
	}
	b, err := collect.EncodeSnapshot(m)
	if err != nil {
		return "encode error: " + err.Error()
	}
	return string(b)
}

// FuzzMergeWire compares the fold against refMergeWire, the kernel it
// replaced, byte for byte on the wire: MergeWire over the whole set at
// topk equal to the fuzzed value and to one below, at and above the
// number of distinct keys; and a WireFold fed one snapshot at a time,
// read after every Add, against the reference over that prefix. A
// refused Add must leave the fold as it was. Seed corpus:
// testdata/fuzz/FuzzMergeWire, one seed per regime of randomWireSet.
func FuzzMergeWire(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed uint64, topk int8) {
		snaps := randomWireSet(seed)
		distinct := 0
		if all, err := refMergeWire(snaps, math.MaxInt); err == nil {
			distinct = len(all.TopK)
		}
		for _, k := range []int{int(topk), distinct - 1, distinct, distinct + 1} {
			want := encodeMerged(refMergeWire(snaps, k))
			if got := encodeMerged(MergeWire(snaps, k)); got != want {
				t.Fatalf("topk %d: MergeWire differs from the reference\ngot  %q\nwant %q", k, got, want)
			}
		}

		fold := NewWireFold(int(topk))
		var kept []*collect.Snapshot
		for i, s := range snaps {
			if err := fold.Add(s); err != nil {
				if _, rerr := refMergeWire(append(kept, s), int(topk)); rerr == nil {
					t.Fatalf("Add(snaps[%d]) = %v, the reference merges it", i, err)
				}
			} else {
				kept = append(kept, s)
			}
			if len(kept) == 0 {
				continue
			}
			want := encodeMerged(refMergeWire(kept, int(topk)))
			if got := encodeMerged(fold.Merged()); got != want {
				t.Fatalf("after Add(snaps[%d]): fold differs from the reference over %d kept windows", i, len(kept))
			}
		}
	})
}

// TestWireFoldStorageBoundedByKeys folds N and then 4N windows drawn
// over one fixed key set: the fold must hold the same entries, key bytes
// and index cells both times — its storage follows distinct keys, not
// windows.
func TestWireFoldStorageBoundedByKeys(t *testing.T) {
	const keys, perWindow, n = 500, 9, 200
	foldOf := func(windows int) *WireFold {
		f := NewWireFold(0)
		for w := 0; w < windows; w++ {
			s := wireSnap("n", uint64(w), int64(w), int64(w+1), []uint64{1, 2, 3})
			for i := 0; i < perWindow; i++ {
				k := (w*perWindow + i) % keys
				s.TopK = append(s.TopK, nnstat.Entry{Key: fmt.Sprintf("flow-%04d", k), Count: uint64(1 + k%7)})
			}
			if err := f.Add(s); err != nil {
				t.Fatalf("Add: %v", err)
			}
		}
		return f
	}
	small, large := foldOf(n), foldOf(4*n)
	if len(small.slab) != keys || len(large.slab) != keys {
		t.Fatalf("fold holds %d entries after %d windows and %d after %d, want %d both times",
			len(small.slab), n, len(large.slab), 4*n, keys)
	}
	if !bytes.Equal(small.keys, large.keys) || len(small.index) != len(large.index) {
		t.Fatalf("key arena %d vs %d bytes, index %d vs %d cells",
			len(small.keys), len(large.keys), len(small.index), len(large.index))
	}
}
