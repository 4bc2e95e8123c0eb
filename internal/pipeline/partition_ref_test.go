package pipeline

import (
	"math/rand"
	"sync"
	"testing"
	"unsafe"

	"netsample/internal/flows"
	"netsample/internal/online"
	"netsample/internal/packet"
	"netsample/internal/trace"
)

// keyHash is the test-only reference for the hash route carries and
// takes the shard from: flows.Key.Hash packs a decoded packet's 5-tuple
// into the two TupleHash words field by field, where route loads the
// same words straight out of the record bytes.
func keyHash(pkt *trace.Packet) uint32 {
	return flows.KeyOf(*pkt).Hash()
}

// shardIndex is the shard route must send pkt to.
func shardIndex(pkt *trace.Packet, n int) int { return int(keyHash(pkt) % uint32(n)) }

// TestItemSize pins the element of a shard batch: the 24-byte packet
// and its carried hash, padded to 32 B.
func TestItemSize(t *testing.T) {
	if got := unsafe.Sizeof(item{}); got != 32 {
		t.Fatalf("item is %d bytes, want 32", got)
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

// routed is one element a shard channel delivered: an item, or, when
// cut is set, the barrier of window cut.
type routed struct {
	it  item
	cut uint64
}

// readerRoutes runs the reader of a pipeline built from cfg over src,
// with each shard worker replaced by a drain that records what reaches
// its channel, and returns that per shard in channel order, with the
// number of data messages (batches) each shard received.
func readerRoutes(t *testing.T, cfg Config, src Source) (got [][]routed, batches []int) {
	t.Helper()
	p, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	got = make([][]routed, len(p.shards))
	batches = make([]int, len(p.shards))
	var wg sync.WaitGroup
	for s, st := range p.shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for msg := range st.in {
				if msg.bar != nil {
					got[s] = append(got[s], routed{cut: msg.bar.win.Seq})
					msg.bar.cut.Done()
					continue
				}
				batches[s]++
				for _, it := range msg.items {
					got[s] = append(got[s], routed{it: it})
				}
			}
		}()
	}
	// Take each barrier, as the collector does, once every shard has
	// seen it.
	go func() {
		for bar := range p.barriers {
			bar.cut.Wait()
		}
	}()
	rs, ok := src.(RawBatchSource)
	if !ok {
		rs = newRecordAdapter(src, p.cfg.BatchSize, &p.stopReq)
	}
	if err := p.readRaw(rs); err != nil {
		t.Fatalf("readRaw: %v", err)
	}
	for _, q := range p.ingest.out {
		close(q)
	}
	wg.Wait()
	close(p.barriers)
	return got, batches
}

// packetsOnly hides a replay's raw form, so the pipeline reads it
// through recordAdapter's one reused window.
type packetsOnly struct{ r *trace.MapReader }

func (s packetsOnly) Next() (trace.Packet, error) { return s.r.Next() }

// TestReaderRoutesLikeReference holds the reader's per-record path to a
// field-wise reference, element by element: a serial pass
// that cuts windows on the same rule, selects every k-th record from
// the first, decodes with trace.DecodeRecords and hashes with keyHash
// (mod the shard count for the shard). Each shard must see its items in
// stream order and each
// barrier after exactly its window's items. Every source reaches the
// shards through route, so no end-to-end comparison of two paths can
// catch an error in it; this is also the layout-drift guard between the
// NSTR record format and the hash word packing.
func TestReaderRoutesLikeReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1993))
	pkts := randomPackets(rng, 1000)
	raw := make([]byte, len(pkts)*trace.RecordLen)
	trace.EncodeRecords(raw, pkts)
	decoded := make([]trace.Packet, len(pkts))
	if n := trace.DecodeRecords(decoded, raw); n != len(pkts) {
		t.Fatalf("DecodeRecords decoded %d of %d", n, len(pkts))
	}
	tr := &trace.Trace{Packets: pkts}
	// At k = 100, records 100 and 200 are selected: a window of
	// span(150) cuts between them, one of span(201) right after 200.
	span := func(i int) int64 {
		if pkts[i].Time == pkts[i-1].Time {
			t.Fatalf("records %d and %d share a timestamp; the cut would not land between them", i-1, i)
		}
		return pkts[i].Time - pkts[0].Time
	}
	cases := []struct {
		k        int
		windowUS int64
	}{
		{100, 0}, {100, span(150)}, {100, span(201)},
		{1, 0}, {1, span(150)}, {1, span(201)},
	}
	for _, c := range cases {
		for _, shards := range []int{1, 2, 4} {
			want := make([][]routed, shards)
			seq := uint64(0)
			cutAll := func() {
				seq++
				for s := range want {
					want[s] = append(want[s], routed{cut: seq})
				}
			}
			nextWin := pkts[0].Time + c.windowUS
			for i := range decoded {
				for c.windowUS > 0 && decoded[i].Time >= nextWin {
					cutAll()
					nextWin += c.windowUS
				}
				if i%c.k != 0 {
					continue
				}
				s := shardIndex(&decoded[i], shards)
				want[s] = append(want[s], routed{it: item{pkt: decoded[i], hash: keyHash(&decoded[i])}})
			}
			cutAll()

			for _, src := range []struct {
				name string
				src  Source
			}{{"raw", tr.Replay()}, {"adapter", packetsOnly{tr.Replay()}}} {
				got, _ := readerRoutes(t, Config{
					Shards:     shards,
					BatchSize:  64,
					QueueDepth: 2,
					WindowUS:   c.windowUS,
					NewSampler: func(int) (online.Sampler, error) { return online.NewSystematic(c.k, 0) },
				}, src.src)
				for s := range want {
					if len(got[s]) != len(want[s]) {
						t.Fatalf("k=%d window=%d shards=%d %s: shard %d got %d elements, want %d",
							c.k, c.windowUS, shards, src.name, s, len(got[s]), len(want[s]))
					}
					for j := range want[s] {
						if got[s][j] != want[s][j] {
							t.Fatalf("k=%d window=%d shards=%d %s: shard %d element %d = %+v, want %+v",
								c.k, c.windowUS, shards, src.name, s, j, got[s][j], want[s][j])
						}
					}
				}
			}
		}
	}
}

// TestShardsGetFullBatches pins when the reader sends: a shard's batch
// goes out when it holds BatchSize items, and the partial rest only at
// a cut. At k = 50 a 256-record source window selects about five
// records, so a reader that flushed every shard per source window would
// wake each shard some fifty times as often.
func TestShardsGetFullBatches(t *testing.T) {
	const k, batch = 50, 256
	tr := &trace.Trace{Packets: randomPackets(rand.New(rand.NewSource(43)), 100_000)}
	for _, shards := range []int{1, 2} {
		for _, src := range []struct {
			name string
			src  Source
		}{{"raw", tr.Replay()}, {"adapter", packetsOnly{tr.Replay()}}} {
			got, batches := readerRoutes(t, Config{
				Shards:     shards,
				BatchSize:  batch,
				NewSampler: func(int) (online.Sampler, error) { return online.NewSystematic(k, 0) },
			}, src.src)
			total := 0
			for s := range got {
				// Every element but the final barrier is an item.
				items := len(got[s]) - 1
				total += items
				if want := (items + batch - 1) / batch; batches[s] != want {
					t.Errorf("shards=%d %s: shard %d got %d batches for %d items, want %d",
						shards, src.name, s, batches[s], items, want)
				}
				if last := got[s][len(got[s])-1]; last.cut != 1 {
					t.Errorf("shards=%d %s: shard %d ends with %+v, want the one barrier", shards, src.name, s, last)
				}
			}
			if want := (tr.Len() + k - 1) / k; total != want {
				t.Errorf("shards=%d %s: %d items routed, want %d", shards, src.name, total, want)
			}
		}
	}
}
