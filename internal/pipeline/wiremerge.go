package pipeline

import (
	"bytes"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"strings"

	"netsample/internal/collect"
	"netsample/internal/nnstat"
)

// ErrMergeWire reports wire snapshots that cannot be merged into one
// aggregate view (no inputs, or histogram schemes that disagree).
var ErrMergeWire = errors.New("pipeline: wire snapshots not mergeable")

// MergeWire folds wire snapshots into one aggregate view with the same
// exact-merge semantics merge applies to shard parts: counters and
// per-bin histogram counts sum, flow totals sum, and heavy hitters are
// re-ranked by (count desc, key asc). It is the on-disk query path's
// merge kernel — internal/store replays a time range of persisted
// snapshots and cmd/nocquery folds them through here, one at a time,
// with a WireFold.
//
// One semantic differs from the shard merge by necessity: shard top-K
// lists concatenate because flow-hash sharding keeps their keys
// disjoint, but across windows (or across nodes) the same flow key
// recurs, so MergeWire sums counts and error bounds key-wise before
// ranking. Counts are window-local, so the sum is the flow's total over
// the merged range; MaxError bounds likewise add.
//
// The merged window spans [min start, max end); Seq carries the highest
// input sequence, Final is set when any input is final, and Node is
// kept only when every input agrees (else "merged"). Reports are not
// carried over: φ-family scores do not merge, and the wire form holds no
// parent counts to rescore against, so read the per-window reports.
func MergeWire(snaps []*collect.Snapshot, topk int) (*collect.Snapshot, error) {
	f := NewWireFold(topk)
	// The inputs already hold every entry, so room for all of them
	// costs no more than they do and spares the fold its regrowth.
	entries, keyBytes := 0, 0
	for _, s := range snaps {
		entries += len(s.TopK)
		for _, e := range s.TopK {
			keyBytes += len(e.Key)
		}
	}
	f.reserve(entries, keyBytes)
	for _, s := range snaps {
		if err := f.Add(s); err != nil {
			return nil, err
		}
	}
	return f.Merged()
}

// WireFold is MergeWire as an accumulator: snapshots are added one at a
// time and Merged reads the result, so a caller streaming a store range
// holds the distinct heavy hitters, never the windows.
//
// Heavy hitters fold into one slab entry per distinct key, found
// through a flat open-addressed index kept at most half full; the key
// bytes are copied into one arena, so nothing a caller passed to Add is
// retained. Each Add costs O(its entries), and the fold's storage is
// O(distinct keys). Merged picks the top k with a k-element heap under rankEntries'
// order — a total order on keys that are unique after the fold, so the
// pick equals sorting every key and truncating.
type WireFold struct {
	topk int
	acc  collect.Snapshot // counters and histograms; TopK unused
	n    int              // snapshots added

	// Entry i's key is keys[slab[i-1].end:slab[i].end] (from 0 for i=0).
	// A non-zero index cell holds a slab position plus one.
	slab  []foldEntry
	keys  []byte
	index []uint32
	shift uint // 64 - log2(len(index)): a hash's top bits pick its cell
}

type foldEntry struct {
	count, maxError uint64
	end             int
}

// NewWireFold starts an empty fold whose result keeps topk heavy
// hitters; topk <= 0 means DefaultTopKReport.
func NewWireFold(topk int) *WireFold {
	if topk <= 0 {
		topk = DefaultTopKReport
	}
	return &WireFold{topk: topk}
}

// Add folds one snapshot in. A snapshot whose histogram bin counts
// differ from the first one's is refused with ErrMergeWire and leaves
// the fold as it was.
func (f *WireFold) Add(s *collect.Snapshot) error {
	acc := &f.acc
	if f.n == 0 {
		*acc = collect.Snapshot{
			Node:          s.Node,
			WindowStartUS: s.WindowStartUS,
			WindowEndUS:   s.WindowEndUS,
			Shards:        s.Shards,
			SizeCounts:    make([]uint64, len(s.SizeCounts)),
			IatCounts:     make([]uint64, len(s.IatCounts)),
		}
	}
	if len(s.SizeCounts) != len(acc.SizeCounts) || len(s.IatCounts) != len(acc.IatCounts) {
		return fmt.Errorf("%w: histogram bins %d/%d vs %d/%d",
			ErrMergeWire, len(s.SizeCounts), len(s.IatCounts),
			len(acc.SizeCounts), len(acc.IatCounts))
	}
	f.n++
	if s.Node != acc.Node {
		acc.Node = "merged"
	}
	acc.Seq = max(acc.Seq, s.Seq)
	acc.WindowStartUS = min(acc.WindowStartUS, s.WindowStartUS)
	acc.WindowEndUS = max(acc.WindowEndUS, s.WindowEndUS)
	acc.Final = acc.Final || s.Final
	acc.Shards = max(acc.Shards, s.Shards)
	acc.Offered += s.Offered
	acc.Processed += s.Processed
	acc.Selected += s.Selected
	acc.Dropped += s.Dropped
	for b, c := range s.SizeCounts {
		acc.SizeCounts[b] += c
	}
	for b, c := range s.IatCounts {
		acc.IatCounts[b] += c
	}
	acc.FlowCounts.Flows += s.FlowCounts.Flows
	acc.FlowCounts.Packets += s.FlowCounts.Packets
	acc.FlowCounts.Bytes += s.FlowCounts.Bytes
	acc.FlowCounts.Singletons += s.FlowCounts.Singletons
	acc.ActiveFlows += s.ActiveFlows
	for _, e := range s.TopK {
		f.addEntry(e)
	}
	return nil
}

// addEntry sums e into its key's slab entry, appending one for a new key.
func (f *WireFold) addEntry(e nnstat.Entry) {
	if 2*(len(f.slab)+1) > len(f.index) {
		f.resize(max(16, 2*len(f.index)))
	}
	mask := uint32(len(f.index) - 1)
	for pos := uint32(nnstat.HashKey(e.Key) >> f.shift); ; pos = (pos + 1) & mask {
		c := f.index[pos]
		if c == 0 {
			f.keys = append(f.keys, e.Key...)
			f.slab = append(f.slab, foldEntry{count: e.Count, maxError: e.MaxError, end: len(f.keys)})
			f.index[pos] = uint32(len(f.slab))
			return
		}
		if string(f.key(int(c-1))) == e.Key {
			f.slab[c-1].count += e.Count
			f.slab[c-1].maxError += e.MaxError
			return
		}
	}
}

// reserve makes room for entries more distinct keys spelled in keyBytes
// bytes, so that folding them allocates nothing.
func (f *WireFold) reserve(entries, keyBytes int) {
	f.slab = slices.Grow(f.slab, entries)
	f.keys = slices.Grow(f.keys, keyBytes)
	cells := max(16, len(f.index))
	for cells < 2*(len(f.slab)+entries) {
		cells *= 2
	}
	if cells > len(f.index) {
		f.resize(cells)
	}
}

// resize rebuilds the index with cells cells, a power of two, and
// re-files every entry.
func (f *WireFold) resize(cells int) {
	f.index, f.shift = make([]uint32, cells), uint(64-bits.TrailingZeros(uint(cells)))
	mask := uint32(cells - 1)
	for i := range f.slab {
		pos := uint32(nnstat.HashKey(f.key(i)) >> f.shift)
		for f.index[pos] != 0 {
			pos = (pos + 1) & mask
		}
		f.index[pos] = uint32(i + 1)
	}
}

// key returns slab entry i's key bytes, aliasing the arena.
func (f *WireFold) key(i int) []byte {
	start := 0
	if i > 0 {
		start = f.slab[i-1].end
	}
	return f.keys[start:f.slab[i].end]
}

// before reports whether slab entry a ranks ahead of b: count
// descending, then key ascending — rankEntries' order.
func (f *WireFold) before(a, b int32) bool {
	ea, eb := &f.slab[a], &f.slab[b]
	if ea.count != eb.count {
		return ea.count > eb.count
	}
	return bytes.Compare(f.key(int(a)), f.key(int(b))) < 0
}

// Merged returns the fold of every snapshot added so far, with its top
// k heavy hitters, as a snapshot of its own: later Adds do not change
// it. It fails with ErrMergeWire when nothing was added.
func (f *WireFold) Merged() (*collect.Snapshot, error) {
	if f.n == 0 {
		return nil, fmt.Errorf("%w: no snapshots", ErrMergeWire)
	}
	// h is a heap of the best k entries seen, its root the one ranked
	// last, so an entry enters only by beating the root.
	k := min(f.topk, len(f.slab))
	h := make([]int32, 0, k)
	for i := range f.slab {
		e := int32(i)
		if len(h) < k {
			h = append(h, e)
			for j := len(h) - 1; j > 0 && f.before(h[(j-1)/2], h[j]); j = (j - 1) / 2 {
				h[j], h[(j-1)/2] = h[(j-1)/2], h[j]
			}
			continue
		}
		if !f.before(e, h[0]) {
			continue
		}
		h[0] = e
		for j := 0; ; {
			c := 2*j + 1
			if c >= len(h) {
				break
			}
			if c+1 < len(h) && f.before(h[c], h[c+1]) {
				c++
			}
			if !f.before(h[j], h[c]) {
				break
			}
			h[j], h[c] = h[c], h[j]
			j = c
		}
	}
	slices.SortFunc(h, func(a, b int32) int {
		switch {
		case a == b:
			return 0
		case f.before(a, b):
			return -1
		}
		return 1
	})

	out := f.acc
	out.SizeCounts = slices.Clone(f.acc.SizeCounts)
	out.IatCounts = slices.Clone(f.acc.IatCounts)
	// The k keys are copied into one string of their own, so the result
	// pins neither the fold's arena nor any other key.
	n := 0
	for _, i := range h {
		n += len(f.key(int(i)))
	}
	var keys strings.Builder
	keys.Grow(n)
	for _, i := range h {
		keys.Write(f.key(int(i)))
	}
	all, end := keys.String(), 0
	out.TopK = make([]nnstat.Entry, len(h)) // empty, never nil, with no heavy hitters
	for j, i := range h {
		e := &f.slab[i]
		start := end
		end += len(f.key(int(i)))
		out.TopK[j] = nnstat.Entry{Key: all[start:end], Count: e.count, MaxError: e.maxError}
	}
	return &out, nil
}
