package traffgen

import (
	"bytes"
	"cmp"
	"math/bits"
	"slices"

	"netsample/internal/trace"
)

// comparePackets is the trace's total order: Time, then every other
// field. Packets it calls equal are identical, so the sorted slice is a
// function of the staged multiset alone — not of emission order, the
// algorithm below, or the toolchain's sort.
func comparePackets(a, b trace.Packet) int {
	if c := cmp.Compare(a.Time, b.Time); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Size, b.Size); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Protocol, b.Protocol); c != 0 {
		return c
	}
	if c := cmp.Compare(a.TCPFlags, b.TCPFlags); c != 0 {
		return c
	}
	if c := bytes.Compare(a.Src[:], b.Src[:]); c != 0 {
		return c
	}
	if c := bytes.Compare(a.Dst[:], b.Dst[:]); c != 0 {
		return c
	}
	if c := cmp.Compare(a.SrcPort, b.SrcPort); c != 0 {
		return c
	}
	return cmp.Compare(a.DstPort, b.DstPort)
}

const (
	radixBits = 8  // digit width: 256 counts and 256 frontiers per level live on the stack
	radixLeaf = 48 // buckets this small or smaller are finished by insertion

	// A keyed bucket's local index fills a key's low keyedIndexBits, so
	// it holds at most keyedMax packets and 64-keyedIndexBits time bits.
	keyedIndexBits = 16
	keyedMax       = 1 << keyedIndexBits
	digitMask      = 1<<radixBits - 1
)

// timeDigit is the radixBits-wide digit of t at shift. The sign bit is
// flipped so digits order negative times first, as comparePackets does.
func timeDigit(t int64, shift uint) int {
	return int((uint64(t)^1<<63)>>shift) & digitMask
}

// digitCounts counts pkts by their time digit at shift.
func digitCounts(pkts []trace.Packet, shift uint) (count [1 << radixBits]int) {
	for i := range pkts {
		count[timeDigit(pkts[i].Time, shift)]++
	}
	return count
}

// keyScratch is keyedSort's working space for the widest bucket it is
// handed: two key arrays (in one) and a packet array.
type keyScratch struct {
	keys []uint64
	pkts []trace.Packet
}

// sortPackets sorts pkts in place under comparePackets: one radix pass
// on the Time digit at the highest bit in which any two staged times
// differ, then keyedSort (or, past its limits, more passes) per bucket.
// It makes keyedSort's scratch, the sort's one allocation (≤ 2¹⁶ × 40 B,
// sized to the widest top bucket), outside the hot closure.
func sortPackets(pkts []trace.Packet) {
	var differ uint64
	for i := range pkts {
		differ |= uint64(pkts[i].Time ^ pkts[0].Time)
	}
	shift := uint(max(bits.Len64(differ)-radixBits, 0))
	count := digitCounts(pkts, shift)
	var sc keyScratch
	if shift > 0 {
		w := min(slices.Max(count[:]), keyedMax)
		sc = keyScratch{keys: make([]uint64, 2*w), pkts: make([]trace.Packet, w)}
	}
	radixSort(pkts, shift, &count, &sc)
}

// radixSort orders pkts, whose times agree above bit shift+radixBits and
// whose digits at shift are tallied in count, by one in-place pass on
// that digit, then finishes each bucket. The pass runs in rounds that
// swap every unplaced packet to its bucket's frontier, placing it; the
// packet swapped back waits for the next round (14–15 rounds on the
// hour, ddos and FIX-West). A round's cache misses overlap, where a
// displacement-cycle walk takes them one after another.
//
//nslint:hotpath
func radixSort(pkts []trace.Packet, shift uint, count *[1 << radixBits]int, sc *keyScratch) {
	var next, end [1 << radixBits]int
	sum := 0
	for d, n := range count {
		next[d] = sum
		sum += n
		end[d] = sum
	}
	for left := true; left; {
		left = false
		for d := range next {
			for i := next[d]; i < end[d]; i++ {
				at := timeDigit(pkts[i].Time, shift)
				pkts[i], pkts[next[at]] = pkts[next[at]], pkts[i]
				next[at]++
			}
			left = left || next[d] < end[d]
		}
	}
	lo := 0
	for _, hi := range end {
		bucket := pkts[lo:hi]
		lo = hi
		switch {
		case len(bucket) <= radixLeaf || shift == 0:
			sortLeaf(bucket)
		case len(bucket) <= keyedMax && shift <= 64-keyedIndexBits:
			keyedSort(bucket, shift, sc)
		default:
			lower := shift - min(shift, radixBits)
			sub := digitCounts(bucket, lower)
			radixSort(bucket, lower, &sub, sc)
		}
	}
}

// keyedSort orders pkts, whose times agree above bit shift, by sorting
// 8-byte keys — Time less the bucket's base, over the local index — in
// LSD radix passes (counted in one read; skipped where every key has one
// digit), then gathers the packets in key order into scratch, sorts each
// run of one Time there and copies them back. A bucket's keys and
// packets (~7 k × 40 B on the hour) stay in cache throughout.
func keyedSort(pkts []trace.Packet, shift uint, sc *keyScratch) {
	n := len(pkts)
	keys, spare := sc.keys[:n], sc.keys[n:2*n]
	var count [(64 - keyedIndexBits) / radixBits][1 << radixBits]int
	passes := count[:(shift+radixBits-1)/radixBits]
	for i := range pkts {
		t := uint64(pkts[i].Time) & (1<<shift - 1)
		keys[i] = t<<keyedIndexBits | uint64(i)
		for p := range passes {
			passes[p][t>>(p*radixBits)&digitMask]++
		}
	}
	for p := range passes {
		next := &passes[p]
		s := keyedIndexBits + uint(p)*radixBits
		if next[keys[0]>>s&digitMask] == n {
			continue
		}
		sum := 0
		for d, c := range next {
			next[d] = sum
			sum += c
		}
		for _, k := range keys {
			d := k >> s & digitMask
			spare[next[d]] = k
			next[d]++
		}
		keys, spare = spare, keys
	}
	out := sc.pkts[:n]
	lo := 0
	for j, k := range keys {
		out[j] = pkts[k&(keyedMax-1)]
		if k>>keyedIndexBits != keys[lo]>>keyedIndexBits {
			if j-lo > 1 {
				sortLeaf(out[lo:j])
			}
			lo = j
		}
	}
	sortLeaf(out[lo:])
	copy(pkts, out)
}

// sortLeaf finishes a bucket no radix pass splits further: insertion up
// to radixLeaf packets, pdqsort beyond — a run of one Time can be any
// length, so no input is quadratic.
func sortLeaf(pkts []trace.Packet) {
	if len(pkts) > radixLeaf {
		slices.SortFunc(pkts, comparePackets)
	} else {
		insertionSort(pkts)
	}
}

// insertionSort finishes a small bucket under comparePackets. Time
// settles all but ties, so it is tested inline and the comparator is
// called only between packets of one µs.
func insertionSort(pkts []trace.Packet) {
	for i := 1; i < len(pkts); i++ {
		p := pkts[i]
		j := i
		for ; j > 0; j-- {
			q := &pkts[j-1]
			if q.Time < p.Time || q.Time == p.Time && comparePackets(*q, p) <= 0 {
				break
			}
			pkts[j] = *q
		}
		pkts[j] = p
	}
}
