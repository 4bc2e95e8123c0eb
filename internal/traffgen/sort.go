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
)

// timeDigit is the radixBits-wide digit of t at shift. The sign bit is
// flipped so digits order negative times first, as comparePackets does.
func timeDigit(t int64, shift uint) int {
	return int((uint64(t)^1<<63)>>shift) & (1<<radixBits - 1)
}

// sortPackets sorts pkts in place under comparePackets: an MSD radix
// sort on Time from the highest bit in which any two staged times
// differ, then comparePackets within a run of equal times.
//
//nslint:hotpath
func sortPackets(pkts []trace.Packet) {
	var differ uint64
	for i := range pkts {
		differ |= uint64(pkts[i].Time ^ pkts[0].Time)
	}
	radixSort(pkts, uint(max(bits.Len64(differ)-radixBits, 0)))
}

// radixSort orders pkts, whose times agree above bit shift+radixBits,
// by one American-flag pass on the digit at shift — count, then walk
// each displacement cycle, dropping every packet at its own bucket's
// frontier — and recurses into the buckets on the next digit down. A bucket at shift 0 is a run of one
// Time: it goes to pdqsort under the full comparator, so no input is
// quadratic.
func radixSort(pkts []trace.Packet, shift uint) {
	var next, end [1 << radixBits]int
	for i := range pkts {
		end[timeDigit(pkts[i].Time, shift)]++
	}
	sum := 0
	for d, n := range end {
		next[d] = sum
		sum += n
		end[d] = sum
	}
	for d := range next {
		for ; next[d] < end[d]; next[d]++ {
			p := pkts[next[d]]
			for at := timeDigit(p.Time, shift); at != d; at = timeDigit(p.Time, shift) {
				p, pkts[next[at]] = pkts[next[at]], p
				next[at]++
			}
			pkts[next[d]] = p
		}
	}
	lo := 0
	for _, hi := range end {
		bucket := pkts[lo:hi]
		lo = hi
		switch {
		case len(bucket) <= radixLeaf:
			insertionSort(bucket)
		case shift == 0:
			slices.SortFunc(bucket, comparePackets)
		default:
			radixSort(bucket, shift-min(shift, radixBits))
		}
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
