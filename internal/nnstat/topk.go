// Package nnstat provides the bounded-memory aggregation machinery a
// statistics processor needs when the full object would not fit — the
// situation the paper describes for the source-destination matrix,
// whose "large size" and long tail of small pairs made sampled
// characterization hard. The TopK sketch implements the Space-Saving
// algorithm (Metwally, Agrawal & El Abbadi): it tracks the heaviest
// keys of a stream with a fixed number of counters, guaranteeing that
// any key with true count above n/capacity is present, with a per-key
// overestimate bounded by the minimum counter.
package nnstat

import (
	"bytes"
	"errors"
	"slices"
	"strings"
)

// TopK is a Space-Saving heavy-hitter sketch over string keys.
//
// All state is sized once in NewTopK: a slab of capacity counters whose
// key bytes live in a per-counter buffer, a min-heap of slab indices
// ordered by count, and an open-addressed hash index from key to slab
// index. Evicting the minimum counter rewrites its slab entry in place,
// so a warm sketch accounts hits, misses and evictions without touching
// the allocator.
type TopK struct {
	slots []tkSlot // len capacity; slots[:n] are live
	n     int
	heap  []int32 // len capacity; heap[:n] is a min-heap of slot indices by count
	index []int32 // open-addressed, linear probing: slot index + 1, 0 = empty
	mask  uint32  // len(index) - 1; len(index) is a power of two >= 2*capacity
	shift uint    // 64 - log2(len(index)): a hash's home is the top bits of its remix
	order []int32 // Top's sort scratch, len capacity
	arena []byte  // uncarved room for key buffers of slots not yet filled
	// reported holds the keys AppendTop has reported, end to end. It
	// only appends, so the strings cut from it never change; when it is
	// too short it is replaced, and the old one lives on in the entries
	// cut from it.
	reported strings.Builder
}

type tkSlot struct {
	key     []byte // reused across evictions
	hash    uint64
	count   uint64
	overcnt uint64 // upper bound on the overestimate
	heapIdx int32
}

// maxCapacity keeps slot indices (and index cells, which store index+1
// in a table of at least twice the capacity) inside int32.
const maxCapacity = 1 << 29

// ErrBadCapacity reports a sketch capacity outside [1, 2^29].
var ErrBadCapacity = errors.New("nnstat: capacity must be positive and at most 2^29")

// NewTopK builds a sketch holding at most capacity counters.
func NewTopK(capacity int) (*TopK, error) {
	if capacity < 1 || capacity > maxCapacity {
		return nil, ErrBadCapacity
	}
	cells, shift := 2, uint(63)
	for cells < 2*capacity {
		cells <<= 1
		shift--
	}
	return &TopK{
		slots: make([]tkSlot, capacity),
		heap:  make([]int32, capacity),
		index: make([]int32, cells),
		mask:  uint32(cells - 1),
		shift: shift,
		order: make([]int32, capacity),
	}, nil
}

// AddBytes accounts weight occurrences of the key spelled as raw
// bytes. Hit, miss and evict all work on the sketch's own storage, so a
// key of at most keyRoom bytes never allocates once the sketch is warm
// (pinned by TestAddBytesDoesNotAllocOnHit and
// TestAddBytesDoesNotAllocOnEvict). The caller may reuse key's backing
// array across calls.
//
//nslint:hotpath
func (t *TopK) AddBytes(key []byte, weight uint64) { tkAdd(t, HashKey(key), key, weight) }

// AddHashed is AddBytes for a caller that already holds a hash of key.
// Equal keys must always come with equal hashes, so a sketch fed
// through AddHashed takes every key that way, from one hash function.
func (t *TopK) AddHashed(hash uint64, key []byte, weight uint64) { tkAdd(t, hash, key, weight) }

// tkAdd is every add, under the key's hash h.
func tkAdd(t *TopK, h uint64, key []byte, weight uint64) {
	for pos := t.home(h); ; pos = (pos + 1) & t.mask {
		c := t.index[pos]
		if c == 0 {
			break
		}
		if s := &t.slots[c-1]; s.hash == h && string(s.key) == string(key) {
			s.count += weight
			t.fix(int(s.heapIdx))
			return
		}
	}
	if t.n < len(t.slots) {
		si := int32(t.n)
		s := &t.slots[si]
		if s.key == nil {
			s.key = t.carve(len(key))
		}
		//nslint:allow hotalloc fill branch, at most capacity times between Resets; the buffer survives Reset and eviction, so it grows only for a key longer than keyRoom and than any this slot has held
		s.key = append(s.key[:0], key...)
		s.hash, s.count, s.overcnt, s.heapIdx = h, weight, 0, si
		t.heap[si] = si
		t.n++
		t.indexInsert(h, si)
		t.up(int(si))
		return
	}
	// Evict the minimum counter: the newcomer takes over its slot and
	// inherits its count as the classic Space-Saving overestimate bound.
	si := t.heap[0]
	s := &t.slots[si]
	t.indexDelete(si)
	//nslint:allow hotalloc evict branch rewrites the victim's retained buffer; it grows only for a key longer than keyRoom and than any this slot has held (keys of at most keyRoom bytes: never, pinned by TestAddBytesDoesNotAllocOnEvict)
	s.key = append(s.key[:0], key...)
	s.hash, s.overcnt = h, s.count
	s.count += weight
	t.indexInsert(h, si)
	t.fix(0)
}

// arenaBytes caps one key arena, so a sketch far larger than the keys
// it will see does not reserve room for all of them up front.
const arenaBytes = 64 << 10

// keyRoom is the least capacity a slot's first key buffer is carved
// with: the longest dotted-quad src-dst label is 31 bytes, so a sketch
// of such labels, whatever their lengths, evicts without reallocating.
const keyRoom = 32

// carve cuts a slot's first key buffer, capacity max(n, keyRoom), from
// the arena. An arena too short for it is replaced by one with that
// many bytes for every slot not yet filled (up to arenaBytes), so a
// sketch allocates its key storage once. The full-slice cap makes a
// longer key reallocate its own buffer instead of writing into its
// neighbour's.
func (t *TopK) carve(n int) []byte {
	n = max(n, keyRoom)
	if len(t.arena) < n {
		//nslint:allow hotalloc fill branch, once per arenaBytes of first-fill keys
		t.arena = make([]byte, max(n, min(n*(len(t.slots)-t.n), arenaBytes)))
	}
	b := t.arena[:0:n]
	t.arena = t.arena[n:]
	return b
}

// HashKey mixes the key eight bytes at a time; its top bits are spread
// well enough to index a power-of-two table directly. It is
// deterministic (no per-process seed), so probe sequences — and with
// them the benchmark's timings — repeat from run to run; the sketch's
// output does not depend on it at all.
func HashKey[K string | []byte](k K) uint64 {
	const m1, m2 = 0x9E3779B97F4A7C15, 0xD6E8FEB86659FD93
	h := uint64(len(k)) * m1
	i := 0
	for ; i+8 <= len(k); i += 8 {
		w := uint64(k[i]) | uint64(k[i+1])<<8 | uint64(k[i+2])<<16 | uint64(k[i+3])<<24 |
			uint64(k[i+4])<<32 | uint64(k[i+5])<<40 | uint64(k[i+6])<<48 | uint64(k[i+7])<<56
		h = (h ^ w) * m2
		h ^= h >> 32
	}
	var w uint64
	for s := uint(0); i < len(k); i, s = i+1, s+8 {
		w |= uint64(k[i]) << s
	}
	h = (h ^ w) * m2
	h ^= h >> 32
	h *= m1
	return h ^ h>>29
}

// home is hash h's first cell: the top bits of a multiplicative remix,
// because a caller's hash may have spent its low bits already — the
// pipeline's chose the shard, so a shard of 2's keys agree in bit 0.
func (t *TopK) home(h uint64) uint32 {
	return uint32(h * 0x9E3779B97F4A7C15 >> t.shift)
}

// indexInsert records slot si under hash h in the first free cell of
// h's probe run. The table is never more than half full, so a free
// cell always exists.
func (t *TopK) indexInsert(h uint64, si int32) {
	pos := t.home(h)
	for t.index[pos] != 0 {
		pos = (pos + 1) & t.mask
	}
	t.index[pos] = si + 1
}

// indexDelete removes slot si's cell by backward-shift deletion: each
// later cell of the probe run moves into the hole unless its home lies
// cyclically after the hole, so lookups never need tombstones and the
// table never degrades under eviction churn.
func (t *TopK) indexDelete(si int32) {
	mask := t.mask
	hole := t.home(t.slots[si].hash)
	for t.index[hole] != si+1 {
		hole = (hole + 1) & mask
	}
	for j := (hole + 1) & mask; t.index[j] != 0; j = (j + 1) & mask {
		home := t.home(t.slots[t.index[j]-1].hash)
		if (j-home)&mask >= (j-hole)&mask {
			t.index[hole] = t.index[j]
			hole = j
		}
	}
	t.index[hole] = 0
}

// The heap mirrors container/heap's up, down and Fix step for step —
// strict <, the left child unless the right is strictly smaller, down
// before up. Which of several equal minimum counters reaches the root
// decides the next eviction victim, so these tie rules are output
// (held to the container/heap reference by TestTopKMatchesReference).

func (t *TopK) less(i, j int) bool {
	return t.slots[t.heap[i]].count < t.slots[t.heap[j]].count
}

func (t *TopK) swap(i, j int) {
	h := t.heap
	h[i], h[j] = h[j], h[i]
	t.slots[h[i]].heapIdx = int32(i)
	t.slots[h[j]].heapIdx = int32(j)
}

func (t *TopK) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !t.less(j, i) {
			break
		}
		t.swap(i, j)
		j = i
	}
}

func (t *TopK) down(i0 int) bool {
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= t.n {
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < t.n && t.less(j2, j1) {
			j = j2 // right child
		}
		if !t.less(j, i) {
			break
		}
		t.swap(i, j)
		i = j
	}
	return i > i0
}

func (t *TopK) fix(i int) {
	if !t.down(i) {
		t.up(i)
	}
}

// Reset empties the sketch for reuse, keeping its capacity. Every
// buffer, key buffers included, is retained, so windowed use (reset per
// window) does not reallocate.
func (t *TopK) Reset() {
	clear(t.index)
	t.n = 0
}

// Entry is one reported heavy hitter.
type Entry struct {
	Key string
	// Count is the sketch's (over)estimate of the key's true count.
	Count uint64
	// MaxError bounds Count's overestimate: true count ∈
	// [Count-MaxError, Count].
	MaxError uint64
}

// reportCuts is how many reports of the same size a fresh report arena
// holds, as far as arenaBytes allows.
const reportCuts = 64

// Top returns up to n entries by descending estimated count (ties by
// key for determinism), in a slice of its own; none for n <= 0.
func (t *TopK) Top(n int) []Entry {
	return t.AppendTop(make([]Entry, 0, max(0, min(n, t.n))), n)
}

// AppendTop is Top appending to dst. The entries' keys are cut from the
// sketch's report arena, which a warm sketch replaces about once every
// reportCuts calls, so with room in dst a call amortizes to no
// allocation.
func (t *TopK) AppendTop(dst []Entry, n int) []Entry {
	if n <= 0 {
		return dst
	}
	order := t.order[:t.n]
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int {
		sa, sb := &t.slots[a], &t.slots[b]
		if sa.count != sb.count {
			if sa.count > sb.count {
				return -1
			}
			return 1
		}
		return bytes.Compare(sa.key, sb.key)
	})
	order = order[:min(n, len(order))]
	need := 0
	for _, si := range order {
		need += len(t.slots[si].key)
	}
	if t.reported.Cap()-t.reported.Len() < need {
		t.reported.Reset()
		t.reported.Grow(max(need, min(reportCuts*need, arenaBytes)))
	}
	start := t.reported.Len()
	for _, si := range order {
		t.reported.Write(t.slots[si].key)
	}
	all := t.reported.String()[start:]
	for _, si := range order {
		s := &t.slots[si]
		dst = append(dst, Entry{Key: all[:len(s.key)], Count: s.count, MaxError: s.overcnt})
		all = all[len(s.key):]
	}
	return dst
}
