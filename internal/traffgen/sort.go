package traffgen

import (
	"bytes"
	"cmp"
	"math/bits"
	"slices"
	"sort"

	"netsample/internal/fanout"
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
// handed: two key arrays (in one) and the order the last key pass
// leaves, 18 B a packet.
type keyScratch struct {
	keys  []uint64
	order []uint16
}

// sortPackets sorts pkts in place under comparePackets and quantizes
// every Time to clockUS (0: none): one radix pass on the Time digit at
// the highest bit in which any two staged times differ, then the 256
// buckets are split into workers contiguous ranges of about equal
// packet count, each finished (finishRange) on its own goroutine with
// its own slice of one keyScratch. A slice spans its range's widest
// bucket (≤ 2¹⁶), so at two workers the scratch is at most 36 B a slot
// of the widest.
func sortPackets(pkts []trace.Packet, clockUS int64, workers int) {
	var differ uint64
	for i := range pkts {
		differ |= uint64(pkts[i].Time ^ pkts[0].Time)
	}
	shift := uint(max(bits.Len64(differ)-radixBits, 0))
	count := digitCounts(pkts, shift)
	end := radixPass(pkts, shift, &count)
	if workers > 1 {
		finishParallel(pkts, shift, count, end, clockUS, workers)
		return
	}
	slots := keySlots(count[:], shift)
	sc := keyScratch{keys: make([]uint64, 2*slots), order: make([]uint16, slots)}
	finishRange(pkts, 0, end[:], shift, &sc, clockUS)
}

// finishParallel is sortPackets' finish on workers goroutines. It takes
// the tallies by value, so only this path moves them to the heap.
func finishParallel(pkts []trace.Packet, shift uint, count, end [1 << radixBits]int, clockUS int64, workers int) {
	// Range w is buckets [first[w], first[w+1]) and scratch slots
	// [slots[w], slots[w+1]).
	bounds := make([]int, 2*(workers+1))
	first, slots := bounds[:workers+1], bounds[workers+1:]
	for w := 1; w <= workers; w++ {
		first[w] = len(end)
		if w < workers {
			first[w] = sort.SearchInts(end[:], w*len(pkts)/workers) + 1
		}
		slots[w] = slots[w-1] + keySlots(count[first[w-1]:first[w]], shift)
	}
	keys, order := make([]uint64, 2*slots[workers]), make([]uint16, slots[workers])
	fanout.Run(workers, func(w int) {
		lo := 0
		if first[w] > 0 {
			lo = end[first[w]-1]
		}
		sc := keyScratch{keys: keys[2*slots[w] : 2*slots[w+1]], order: order[slots[w]:slots[w+1]]}
		finishRange(pkts, lo, end[first[w]:first[w+1]], shift, &sc, clockUS)
	})
}

// keySlots is the scratch keyedSort needs for the widest of the buckets
// counted in count: a slot a packet, none when no bucket is keyed.
func keySlots(count []int, shift uint) int {
	if shift == 0 || len(count) == 0 {
		return 0
	}
	return min(slices.Max(count), keyedMax)
}

// radixPass orders pkts, whose times agree above bit shift+radixBits and
// whose digits at shift are tallied in count, by one in-place pass on
// that digit, and returns where each bucket ends. The pass runs in
// rounds that swap every unplaced packet to its bucket's frontier,
// placing it; the packet swapped back waits for the next round (14–15
// rounds on the hour, ddos and FIX-West). A round's cache misses
// overlap, where a displacement-cycle walk takes them one after another.
//
//nslint:hotpath
func radixPass(pkts []trace.Packet, shift uint, count *[1 << radixBits]int) (end [1 << radixBits]int) {
	var next [1 << radixBits]int
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
	return end
}

// finishRange finishes the radix buckets of pkts that start at lo and
// end at ends — keyedSort in sc, or, past its limits, another pass —
// then quantizes their times to clockUS (0: none).
//
//nslint:hotpath
func finishRange(pkts []trace.Packet, lo int, ends []int, shift uint, sc *keyScratch, clockUS int64) {
	start := lo
	for _, hi := range ends {
		bucket := pkts[lo:hi]
		lo = hi
		switch {
		case len(bucket) <= radixLeaf || shift == 0:
			sortLeaf(bucket)
		case len(bucket) <= keyedMax && shift <= 64-keyedIndexBits:
			keyedSort(bucket, shift, sc)
		default:
			lower := shift - min(shift, radixBits)
			count := digitCounts(bucket, lower)
			end := radixPass(bucket, lower, &count)
			finishRange(bucket, 0, end[:], lower, sc, 0)
		}
	}
	if clockUS > 0 {
		for i := start; i < lo; i++ {
			pkts[i].Time -= pkts[i].Time % clockUS
		}
	}
}

// keyedSort orders pkts, whose times agree above bit shift, by sorting
// 8-byte keys — Time less the bucket's base, over the local index — in
// LSD radix passes (counted in one read; skipped where every key has one
// digit), the last of which writes only each key's 16-bit index, into
// order. It then permutes the packets into that order in place and
// sorts each run of one Time. A bucket's packets (~7 k × 24 B on the
// hour) stay in L2 and its order in L1 throughout.
func keyedSort(pkts []trace.Packet, shift uint, sc *keyScratch) {
	n := len(pkts)
	keys, spare, order := sc.keys[:n], sc.keys[n:2*n], sc.order[:n]
	var count [(64 - keyedIndexBits) / radixBits][1 << radixBits]int
	passes := count[:(shift+radixBits-1)/radixBits]
	for i := range pkts {
		t := uint64(pkts[i].Time) & (1<<shift - 1)
		keys[i] = t<<keyedIndexBits | uint64(i)
		for p := range passes {
			passes[p][t>>(p*radixBits)&digitMask]++
		}
	}
	last := -1 // the last pass with more than one digit
	for p := range passes {
		if passes[p][keys[0]>>(keyedIndexBits+uint(p)*radixBits)&digitMask] != n {
			last = p
		}
	}
	if last < 0 { // one Time: one run
		sortLeaf(pkts)
		return
	}
	for p := 0; p <= last; p++ {
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
		if p == last {
			for _, k := range keys {
				d := k >> s & digitMask
				order[next[d]] = uint16(k)
				next[d]++
			}
			break
		}
		for _, k := range keys {
			d := k >> s & digitMask
			spare[next[d]] = k
			next[d]++
		}
		keys, spare = spare, keys
	}
	// Slot j takes the packet at order[j]. Each cycle of that permutation
	// is walked once: a filled slot's order becomes the slot itself, so
	// later starts skip it.
	for j := range order {
		if int(order[j]) == j {
			continue
		}
		p, k := pkts[j], j
		for src := int(order[k]); src != j; src = int(order[k]) {
			pkts[k] = pkts[src]
			order[k] = uint16(k)
			k = src
		}
		pkts[k] = p
		order[k] = uint16(k)
	}
	lo := 0
	for j := range pkts {
		if pkts[j].Time != pkts[lo].Time {
			if j-lo > 1 {
				sortLeaf(pkts[lo:j])
			}
			lo = j
		}
	}
	sortLeaf(pkts[lo:])
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
