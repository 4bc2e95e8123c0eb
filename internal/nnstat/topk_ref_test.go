package nnstat

import (
	"bytes"
	"container/heap"
	"slices"
	"sort"
	"strconv"
	"testing"

	"netsample/internal/dist"
)

// refTopK is the sketch as it was before the slab rewrite — a
// map[string]*refEntry plus container/heap — kept test-only as the
// behavioural reference. Which of several minimum counters sits at the
// heap root decides the Space-Saving victim, so eviction order is
// output; TestTopKMatchesReference and FuzzTopKDifferential hold TopK to
// this implementation step for step.
type refTopK struct {
	capacity int
	entries  map[string]*refEntry
	h        refHeap
}

type refEntry struct {
	key     string
	count   uint64
	overcnt uint64
	heapIdx int
}

type refHeap []*refEntry

func (h refHeap) Len() int            { return len(h) }
func (h refHeap) Less(i, j int) bool  { return h[i].count < h[j].count }
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i]; h[i].heapIdx = i; h[j].heapIdx = j }
func (h *refHeap) Push(x interface{}) { e := x.(*refEntry); e.heapIdx = len(*h); *h = append(*h, e) }
func (h *refHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

func newRefTopK(capacity int) *refTopK {
	return &refTopK{capacity: capacity, entries: make(map[string]*refEntry, capacity)}
}

func (t *refTopK) Add(key string, weight uint64) {
	if e, ok := t.entries[key]; ok {
		e.count += weight
		heap.Fix(&t.h, e.heapIdx)
		return
	}
	if len(t.entries) < t.capacity {
		e := &refEntry{key: key, count: weight}
		t.entries[key] = e
		heap.Push(&t.h, e)
		return
	}
	min := t.h[0]
	delete(t.entries, min.key)
	e := &refEntry{key: key, count: min.count + weight, overcnt: min.count, heapIdx: 0}
	t.entries[key] = e
	t.h[0] = e
	heap.Fix(&t.h, 0)
}

func (t *refTopK) AddBytes(key []byte, weight uint64) { t.Add(string(key), weight) }

func (t *refTopK) Reset() {
	for k := range t.entries {
		delete(t.entries, k)
	}
	t.h = t.h[:0]
}

func (t *refTopK) Top(n int) []Entry {
	out := make([]Entry, 0, len(t.entries))
	for _, e := range t.entries {
		out = append(out, Entry{Key: e.key, Count: e.count, MaxError: e.overcnt})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Key < out[j].Key
	})
	if n < len(out) {
		out = out[:n]
	}
	return out
}

// diffKey spells key id k: lengths vary from empty to longer than one
// hash word, so buffer reuse across evictions sees growth and shrinkage.
func diffKey(k int) string {
	const alphabet = "abcdefghijklmnopqrstuvwxyz"
	if k == 0 {
		return ""
	}
	n := 1 + k%11
	b := make([]byte, 0, n+4)
	for i := 0; i < n; i++ {
		b = append(b, alphabet[(k+i*7)%len(alphabet)])
	}
	return string(b) + strconv.Itoa(k)
}

// diffRun interprets ops two bytes at a time against both sketches and
// compares every observable after every step. Byte 0 picks the
// operation (mostly adds, from a fresh key slice or a reused buffer;
// Reset is rare) and the weight (1..maxWeight); byte 1 and the high
// bits of byte 0 pick the key out of nkeys.
func diffRun(t *testing.T, capacity, nkeys, maxWeight int, ops []byte) {
	t.Helper()
	got, err := NewTopK(capacity)
	if err != nil {
		t.Fatal(err)
	}
	want := newRefTopK(capacity)
	buf := make([]byte, 0, 32)
	for step := 0; step+1 < len(ops); step += 2 {
		op, sel := int(ops[step]), int(ops[step+1])
		key := diffKey((sel | op>>6<<8) % nkeys)
		weight := uint64(1 + (op>>3)%maxWeight)
		switch {
		case op%64 == 0:
			got.Reset()
			want.Reset()
		case op%2 == 0:
			got.AddBytes([]byte(key), weight)
			want.Add(key, weight)
		default:
			buf = append(buf[:0], key...)
			got.AddBytes(buf, weight)
			want.AddBytes(buf, weight)
		}
		if g, w := got.Top(capacity), want.Top(capacity); !slices.Equal(g, w) {
			t.Fatalf("step %d (op %#x key %q): Top diverged\n got %v\nwant %v", step/2, op, key, g, w)
		}
	}
}

// TestTopKMatchesReference drives tie-heavy streams — unit weights, few
// distinct counts, tiny capacities — where the victim is decided purely
// by which equal-count counter container/heap's sift rules leave at the
// root, and holds the index heap to the same choice at every step.
func TestTopKMatchesReference(t *testing.T) {
	r := dist.NewRNG(1993)
	for _, capacity := range []int{1, 2, 3, 128} {
		for _, nkeys := range []int{capacity, capacity + 1, 3*capacity + 5, 1024} {
			for _, maxWeight := range []int{1, 3} {
				steps := 600
				if capacity == 128 {
					steps = 2500
				}
				ops := make([]byte, 2*steps)
				for i := range ops {
					ops[i] = byte(r.IntN(256))
				}
				diffRun(t, capacity, nkeys, maxWeight, ops)
			}
		}
	}
}

// FuzzTopKDifferential lets the fuzzer search for an op sequence on
// which the slab sketch and the container/heap reference part ways.
func FuzzTopKDifferential(f *testing.F) {
	f.Add(uint8(0), uint8(1), []byte{1, 0, 1, 1, 1, 2, 3, 0, 1, 3})
	f.Add(uint8(1), uint8(1), []byte{1, 0, 3, 1, 1, 2, 1, 3, 64, 0, 1, 4, 1, 5, 1, 6})
	f.Add(uint8(2), uint8(3), []byte{9, 7, 17, 7, 1, 8, 1, 9, 1, 10, 25, 8, 1, 11})
	f.Add(uint8(3), uint8(1), bytes.Repeat([]byte{1, 0, 3, 200, 65, 9, 129, 77, 193, 31}, 60))
	f.Fuzz(func(t *testing.T, capSel, maxWeight uint8, ops []byte) {
		capacity := []int{1, 2, 3, 128}[capSel%4]
		diffRun(t, capacity, 1024, 1+int(maxWeight%4), ops)
	})
}
