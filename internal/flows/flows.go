// Package flows decomposes packet traces into transport flows — the
// unit behind the paper's closing remark that sampled characterization
// of per-pair traffic is hard "because many traffic pairs generate
// small amounts of traffic during typical sampling intervals". A flow
// here is the classic 5-tuple aggregated with an idle timeout, the
// definition NetFlow later operationalized; the ext-flows experiment
// uses this package to quantify how packet sampling biases flow-level
// views (small flows vanish, detected mean flow size inflates).
package flows

import (
	"cmp"
	"encoding/binary"
	"errors"
	"math"
	"slices"

	"netsample/internal/packet"
	"netsample/internal/trace"
)

// Key identifies a unidirectional transport flow.
type Key struct {
	Src, Dst         packet.Addr
	SrcPort, DstPort uint16
	Proto            packet.Protocol
}

// Flow is an aggregated flow record.
type Flow struct {
	Key     Key
	Packets int64
	Bytes   int64
	FirstUS int64
	LastUS  int64
}

// TupleHash is the module's one 5-tuple hash: the ingest kernel makes it
// once per packet, picks the shard with it and carries it to the shard's
// Counter and sketch. w1 is the source address (low half) and destination,
// each little-endian; w2 the source port, destination port << 16 and
// protocol << 32. Two independent multiply-xor folds and a murmur3-style
// finalizer; unseeded, so probe sequences repeat from run to run.
func TupleHash(w1, w2 uint64) uint32 {
	const (
		m1 = 0x9E3779B97F4A7C15
		m2 = 0xC2B2AE3D27D4EB4F
		m3 = 0xFF51AFD7ED558CCD
	)
	h := (w1 ^ m1) * m2
	h ^= (w2 ^ m2) * m1
	h ^= h >> 32
	h *= m3
	h ^= h >> 32
	return uint32(h)
}

// KeyOf is the flow a packet belongs to.
func KeyOf(p trace.Packet) Key {
	return Key{Src: p.Src, Dst: p.Dst, SrcPort: p.SrcPort, DstPort: p.DstPort, Proto: p.Protocol}
}

// Hash is TupleHash over the key's fields.
func (k Key) Hash() uint32 {
	return TupleHash(
		uint64(binary.LittleEndian.Uint32(k.Src[:]))|uint64(binary.LittleEndian.Uint32(k.Dst[:]))<<32,
		uint64(k.SrcPort)|uint64(k.DstPort)<<16|uint64(k.Proto)<<32)
}

// Table is a streaming flow table with idle-timeout expiry. Packets
// must be offered in time order; flows idle longer than the timeout are
// closed, and a new packet with the same key opens a fresh flow (the
// NetFlow active/idle semantics, idle only).
//
// Records live in one slab in the order their first packets arrived;
// index is an open-addressed, linear-probed table, at most half full,
// whose cells point each key at its newest record. An idle-expired
// record stays where it is, closed, and the key's cell is repointed at
// a record appended for the new flow — so opening, updating and expiring
// a flow write only into storage that Flush hands back for reuse.
type Table struct {
	timeoutUS int64
	index     []uint32 // slab index + 1 of a key's newest record, 0 = empty; len a power of two
	shift     uint     // 64 - log2(len(index)): a hash's cell is the top bits of its remix
	keys      int      // occupied cells
	recs      []Flow   // every record since the last Flush, by arrival of its first packet
}

// minCells is an empty table's index length; it doubles from there.
const minCells = 16

// ErrBadTimeout reports a non-positive idle timeout.
var ErrBadTimeout = errors.New("flows: idle timeout must be positive")

// NewTable builds a flow table with the given idle timeout.
func NewTable(timeoutUS int64) (*Table, error) {
	if timeoutUS < 1 {
		return nil, ErrBadTimeout
	}
	return &Table{timeoutUS: timeoutUS, index: make([]uint32, minCells), shift: 60}, nil
}

// cell is the home of hash h in a table of 1<<(64-shift) cells: the top
// bits of a multiplicative remix, never the bits that chose the shard —
// every key of shard s of 2 has the same bit 0, and indexing on it
// would leave half the cells nobody's home.
func cell(h uint32, shift uint) uint32 {
	return uint32(uint64(h) * 0x9E3779B97F4A7C15 >> shift)
}

// Add offers one packet. Expiry is checked lazily per key: a packet
// arriving more than the timeout after its flow's last packet closes
// the old flow and starts a new one.
//
//nslint:hotpath
func (t *Table) Add(p trace.Packet) {
	if 2*t.keys >= len(t.index) {
		// Room for one more key at half load, so every probe ends.
		t.index, t.shift = growIndex(t.index, t.shift, t.recs)
	}
	key := KeyOf(p)
	mask := uint32(len(t.index) - 1)
	pos := cell(key.Hash(), t.shift)
	for ; t.index[pos] != 0; pos = (pos + 1) & mask {
		if f := &t.recs[t.index[pos]-1]; f.Key == key {
			if p.Time-f.LastUS <= t.timeoutUS {
				f.Packets++
				f.Bytes += int64(p.Size)
				f.LastUS = p.Time
				return
			}
			break // idle-expired: the key keeps its cell, repointed below
		}
	}
	n := len(t.recs)
	if t.index[pos] == 0 {
		t.keys++
	}
	t.index[pos] = slabIndex(uint64(n))
	if n == cap(t.recs) {
		//nslint:allow hotalloc per doubling, not per flow: Flush truncates the slab and keeps its capacity, so the array is remade only in a window with more records than any before it, and doubling bounds what the regrowth leaves behind to the final size (append's 1.25x left five times it); pinned by TestTableAddDoesNotAllocAfterFlush
		t.recs = append(make([]Flow, 0, max(2*n, minCells/2)), t.recs...)
	}
	t.recs = t.recs[:n+1]
	t.recs[n] = Flow{Key: key, Packets: 1, Bytes: int64(p.Size), FirstUS: p.Time, LastUS: p.Time}
}

// keyed is a slab entry that stores its key: Table's Flow or Counter's
// slot.
type keyed interface{ flowKey() Key }

func (f Flow) flowKey() Key { return f.Key }

// growIndex doubles an index whose cells point into slab (position + 1,
// 0 = empty) and returns it with its new shift, rehashing every
// occupied cell from the key its entry stores.
func growIndex[E keyed](old []uint32, shift uint, slab []E) ([]uint32, uint) {
	//nslint:allow hotalloc per doubling, not per flow: Flush and Cut clear the index in place and keep its length, so it is remade only in a window with more keys than any before it (pinned by TestTableAddDoesNotAllocAfterFlush, TestCounterAddDoesNotAllocAfterCut)
	index := make([]uint32, 2*len(old))
	shift--
	mask := uint32(len(index) - 1)
	for _, c := range old {
		if c != 0 {
			pos := cell(slab[c-1].flowKey().Hash(), shift)
			for index[pos] != 0 {
				pos = (pos + 1) & mask
			}
			index[pos] = c
		}
	}
	return index, shift
}

// slabIndex is the index cell for slab position n, n + 1, refusing to
// wrap: 2^32 - 1 records between two Flushes is a 192 GiB slab (keys
// between two Cuts, 96 GiB), and aliasing the empty cell would corrupt
// counts instead of failing.
func slabIndex(n uint64) uint32 {
	if n >= math.MaxUint32 {
		panic("flows: more than 2^32 - 1 slab entries between resets")
	}
	return uint32(n + 1)
}

// ActiveCount returns the number of currently open flows: distinct keys
// seen since the last Flush, idle-expired ones included until a packet
// reopens them.
func (t *Table) ActiveCount() int { return t.keys }

// Flush closes all active flows and returns every flow seen, ordered by
// first-packet time (ties by key bytes for determinism). The table is
// reset.
//
// The returned slice is the table's own slab, handed over without a
// copy: it is valid until the next Add on this table, which starts
// overwriting it. A caller that keeps records across an Add must copy
// them first.
func (t *Table) Flush() []Flow {
	out := t.recs
	t.recs = t.recs[:0]
	clear(t.index)
	t.keys = 0
	// Arrival order is already first-packet order; only runs of records
	// opened in the same microsecond still need the key tie-break.
	for lo := 0; lo < len(out); {
		hi := lo + 1
		for hi < len(out) && out[hi].FirstUS == out[lo].FirstUS {
			hi++
		}
		if hi < len(out) && out[hi].FirstUS < out[lo].FirstUS {
			// A packet was offered out of time order, so arrival order
			// is not first-packet order after all: sort everything.
			slices.SortFunc(out, cmpFlow)
			return out
		}
		if hi-lo > 1 {
			slices.SortFunc(out[lo:hi], cmpFlow)
		}
		lo = hi
	}
	return out
}

// cmpFlow is Flush's documented order: first-packet time, then key.
func cmpFlow(a, b Flow) int {
	switch {
	case a.FirstUS != b.FirstUS:
		return cmp.Compare(a.FirstUS, b.FirstUS)
	case lessKey(a.Key, b.Key):
		return -1
	case lessKey(b.Key, a.Key):
		return 1
	}
	return 0
}

func lessKey(a, b Key) bool {
	if a.Src != b.Src {
		return a.Src.Uint32() < b.Src.Uint32()
	}
	if a.Dst != b.Dst {
		return a.Dst.Uint32() < b.Dst.Uint32()
	}
	if a.SrcPort != b.SrcPort {
		return a.SrcPort < b.SrcPort
	}
	if a.DstPort != b.DstPort {
		return a.DstPort < b.DstPort
	}
	return a.Proto < b.Proto
}

// Decompose splits a whole trace into flows with the given idle timeout.
// Its table is never offered another packet, so the records are the
// caller's to keep.
func Decompose(tr *trace.Trace, timeoutUS int64) ([]Flow, error) {
	t, err := NewTable(timeoutUS)
	if err != nil {
		return nil, err
	}
	for _, p := range tr.Packets {
		t.Add(p)
	}
	return t.Flush(), nil
}

// Counts are integer flow-level totals: exact sums that merge across
// shards or windows by plain field addition, and from which a caller
// derives the means (Packets/Flows, Bytes/Flows, Singletons/Flows).
type Counts struct {
	// Flows is the number of flow records.
	Flows uint64
	// Packets and Bytes total the records' packet and byte counts.
	Packets uint64
	Bytes   uint64
	// Singletons counts one-packet flows — the population packet
	// sampling misses most readily.
	Singletons uint64
}

// CountFlows totals a flow record set.
func CountFlows(fs []Flow) Counts {
	var c Counts
	c.Flows = uint64(len(fs))
	for _, f := range fs {
		c.Packets += uint64(f.Packets)
		c.Bytes += uint64(f.Bytes)
		if f.Packets == 1 {
			c.Singletons++
		}
	}
	return c
}

// Counter is a Table that keeps only what Counts needs: the same keys,
// hash, index and idle rule — a packet within the timeout of its key's
// last one continues the flow, any later one opens a new record — but
// one 24-byte slot per key instead of a 48-byte Flow per record, and
// the totals counted as packets arrive. Cut returns
// CountFlows(Flush()) of a Table offered the same packets, with no
// records to sort or sum.
type Counter struct {
	timeoutUS int64
	index     []uint32 // slot index + 1 of a key, 0 = empty; len a power of two
	shift     uint     // 64 - log2(len(index)), as in Table
	slots     []slot   // one per key since the last Cut
	counts    Counts   // totals of every record since the last Cut
}

// slot is a key's open record, reduced to what decides its next
// packet: when it arrived, and whether the record is still a singleton.
type slot struct {
	key    Key
	multi  bool // the record has more than one packet; sits in Key's padding
	lastUS int64
}

func (s slot) flowKey() Key { return s.key }

// NewCounter builds a flow counter with the given idle timeout.
func NewCounter(timeoutUS int64) (*Counter, error) {
	if timeoutUS < 1 {
		return nil, ErrBadTimeout
	}
	return &Counter{timeoutUS: timeoutUS, index: make([]uint32, minCells), shift: 60}, nil
}

// AddHashed offers one packet whose key's Hash is h; any other value
// corrupts the counter. Packets must come in time order, as for Table.
func (c *Counter) AddHashed(h uint32, p trace.Packet) {
	c.counts.Packets++
	c.counts.Bytes += uint64(p.Size)
	if 2*len(c.slots) >= len(c.index) {
		c.index, c.shift = growIndex(c.index, c.shift, c.slots)
	}
	key := KeyOf(p)
	mask := uint32(len(c.index) - 1)
	pos := cell(h, c.shift)
	for ; c.index[pos] != 0; pos = (pos + 1) & mask {
		if s := &c.slots[c.index[pos]-1]; s.key == key {
			switch {
			case p.Time-s.lastUS > c.timeoutUS: // idle-expired: the slot opens the key's next record
				s.multi = false
				c.counts.Flows++
				c.counts.Singletons++
			case !s.multi:
				s.multi = true
				c.counts.Singletons--
			}
			s.lastUS = p.Time
			return
		}
	}
	n := len(c.slots)
	c.index[pos] = slabIndex(uint64(n))
	if n == cap(c.slots) {
		//nslint:allow hotalloc per doubling, not per flow: Cut truncates the slots and keeps their capacity, so the array is remade only in a window with more keys than any before it; pinned by TestCounterAddDoesNotAllocAfterCut
		c.slots = append(make([]slot, 0, max(2*n, minCells/2)), c.slots...)
	}
	c.slots = c.slots[:n+1]
	c.slots[n] = slot{key: key, lastUS: p.Time}
	c.counts.Flows++
	c.counts.Singletons++
}

// ActiveCount is Table's: distinct keys seen since the last Cut.
func (c *Counter) ActiveCount() int { return len(c.slots) }

// Cut closes every record, returns the totals since the last Cut and
// resets the counter, keeping its capacity.
func (c *Counter) Cut() Counts {
	out := c.counts
	c.counts = Counts{}
	c.slots = c.slots[:0]
	clear(c.index)
	return out
}
