package pipeline

import (
	"math/rand"
	"testing"
	"unsafe"

	"netsample/internal/flows"
	"netsample/internal/packet"
	"netsample/internal/trace"
)

// keyHash is the test-only reference for the hash partitionRaw carries
// and takes the shard from: flows.Key.Hash packs a decoded packet's
// 5-tuple into the two TupleHash words field by field, where the kernel
// loads the same words straight out of the record bytes.
func keyHash(pkt *trace.Packet) uint32 {
	return flows.Key{Src: pkt.Src, Dst: pkt.Dst, SrcPort: pkt.SrcPort, DstPort: pkt.DstPort, Proto: pkt.Protocol}.Hash()
}

// shardIndex is the shard partitionRaw must send pkt to.
func shardIndex(pkt *trace.Packet, n int) int { return int(keyHash(pkt) % uint32(n)) }

// TestItemSize pins the ring element: the carried hash fills the
// trailing padding.
func TestItemSize(t *testing.T) {
	if got := unsafe.Sizeof(item{}); got != 40 {
		t.Fatalf("item is %d bytes, want 40", got)
	}
}

// randomPackets draws n packets covering every protocol, port and flag
// value, with nondecreasing timestamps.
func randomPackets(rng *rand.Rand, n int) []trace.Packet {
	pkts := make([]trace.Packet, n)
	now := int64(0)
	for i := range pkts {
		now += int64(rng.Intn(2000))
		pkts[i] = trace.Packet{
			Time:     now,
			Size:     uint16(rng.Intn(1 << 16)),
			Protocol: packet.Protocol(rng.Intn(256)),
			TCPFlags: uint8(rng.Intn(256)),
			Src:      packet.Addr{byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))},
			Dst:      packet.Addr{byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))},
			SrcPort:  uint16(rng.Intn(1 << 16)),
			DstPort:  uint16(rng.Intn(1 << 16)),
		}
	}
	return pkts
}

// partitionUnit runs one unit over pkts through a fresh ingest worker's
// partitionRaw and returns the per-shard item batches it built. A unit
// without a selection bitmap selects every packet.
func partitionUnit(pkts []trace.Packet, shards int, u srcUnit) [][]item {
	if u.sel == nil {
		u.sel = make([]uint64, (len(pkts)+63)/64)
		for i := range u.sel {
			u.sel[i] = ^uint64(0)
		}
	}
	u.raw = make([]byte, len(pkts)*trace.RecordLen)
	trace.EncodeRecords(u.raw, pkts)
	ig := newIngestState(&Config{Shards: shards, QueueDepth: 1, BatchSize: len(pkts)})
	ig.partitionRaw(u)
	return ig.cur
}

// TestPartitionRawMatchesReference holds the fused ingest kernel to a
// field-wise reference, item by item: a []bool the bitmap was packed
// from for which packets become items, trace.DecodeRecords for the
// packet, keyHash for the carried hash and (mod the shard count) the
// shard, and a serial chain over every packet, selected or not, for the
// gap. Every source reaches the shards through partitionRaw, so no
// end-to-end comparison of two paths can catch an error in it any more;
// this is also the layout-drift guard between the NSTR record format
// and the hash word packing.
func TestPartitionRawMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1993))
	pkts := randomPackets(rng, 300)
	raw := make([]byte, len(pkts)*trace.RecordLen)
	trace.EncodeRecords(raw, pkts)
	decoded := make([]trace.Packet, len(pkts))
	if n := trace.DecodeRecords(decoded, raw); n != len(pkts) {
		t.Fatalf("DecodeRecords decoded %d of %d", n, len(pkts))
	}

	// Selection patterns: none, all, every 7th from the 4th, every 100th
	// from the 2nd, and coin flips. Every 7th and the coin flips put set
	// and clear bits on both sides of every word boundary of the 300-bit
	// bitmap; every 100th leaves whole words clear between selections,
	// so a gap chains across more than 64 skipped records.
	patterns := []struct {
		name string
		sel  func(i int) bool
	}{
		{"none", func(int) bool { return false }},
		{"all", func(int) bool { return true }},
		{"every7", func(i int) bool { return i%7 == 3 }},
		{"every100", func(i int) bool { return i%100 == 1 }},
		{"uniform", func(int) bool { return rng.Intn(2) == 0 }},
	}
	for _, shards := range []int{1, 2, 3, 7, 300} {
		for _, noGap0 := range []bool{false, true} {
			for _, pattern := range patterns {
				st := pattern.name
				selected := make([]bool, len(pkts))
				bitmap := make([]uint64, (len(pkts)+63)/64)
				for i := range selected {
					if selected[i] = pattern.sel(i); selected[i] {
						bitmap[i/64] |= 1 << (i % 64)
					}
				}
				u := srcUnit{prevUS: -5, noGap0: noGap0, sel: bitmap}
				got := partitionUnit(pkts, shards, u)

				want := make([][]item, shards)
				prev := u.prevUS
				for i := range decoded {
					gap := decoded[i].Time - prev
					prev = decoded[i].Time
					if !selected[i] {
						continue
					}
					s := shardIndex(&decoded[i], shards)
					want[s] = append(want[s], item{
						pkt:    decoded[i],
						gapUS:  gap,
						hasGap: !(noGap0 && i == 0),
						hash:   keyHash(&decoded[i]),
					})
				}
				for s := range want {
					if len(got[s]) != len(want[s]) {
						t.Fatalf("shards=%d noGap0=%v sel=%s: shard %d got %d items, want %d",
							shards, noGap0, st, s, len(got[s]), len(want[s]))
					}
					for j := range want[s] {
						if got[s][j] != want[s][j] {
							t.Fatalf("shards=%d noGap0=%v sel=%s: shard %d item %d = %+v, want %+v",
								shards, noGap0, st, s, j, got[s][j], want[s][j])
						}
					}
				}
			}
		}
	}
}
