package flows

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"testing"
	"time"
	"unsafe"

	"netsample/internal/core"
	"netsample/internal/dist"
	"netsample/internal/packet"
	"netsample/internal/trace"
	"netsample/internal/traffgen"
)

func pkt(tUS int64, srcPort uint16, size uint16) trace.Packet {
	return trace.Packet{
		Time: tUS, Size: size, Protocol: packet.ProtoTCP,
		Src: packet.Addr{10, 0, 0, 1}, Dst: packet.Addr{20, 0, 0, 1},
		SrcPort: srcPort, DstPort: 23,
	}
}

func TestNewTableValidation(t *testing.T) {
	if _, err := NewTable(0); err != ErrBadTimeout {
		t.Error("zero timeout accepted")
	}
}

func TestSingleFlowAggregation(t *testing.T) {
	tab, err := NewTable(1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	tab.Add(pkt(0, 1024, 100))
	tab.Add(pkt(500_000, 1024, 200))
	tab.Add(pkt(900_000, 1024, 300))
	fs := tab.Flush()
	if len(fs) != 1 {
		t.Fatalf("flows = %d", len(fs))
	}
	f := fs[0]
	if f.Packets != 3 || f.Bytes != 600 || f.FirstUS != 0 || f.LastUS != 900_000 {
		t.Fatalf("flow = %+v", f)
	}
}

func TestIdleTimeoutSplitsFlow(t *testing.T) {
	tab, err := NewTable(100_000)
	if err != nil {
		t.Fatal(err)
	}
	tab.Add(pkt(0, 1024, 100))
	tab.Add(pkt(50_000, 1024, 100))
	tab.Add(pkt(300_000, 1024, 100)) // 250 ms gap > 100 ms timeout
	fs := tab.Flush()
	if len(fs) != 2 {
		t.Fatalf("flows = %d, want split", len(fs))
	}
	if fs[0].Packets != 2 || fs[1].Packets != 1 {
		t.Fatalf("split wrong: %+v", fs)
	}
}

func TestDistinctKeysDistinctFlows(t *testing.T) {
	tab, err := NewTable(1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	tab.Add(pkt(0, 1024, 100))
	tab.Add(pkt(1, 1025, 100))
	udp := pkt(2, 1024, 100)
	udp.Protocol = packet.ProtoUDP
	tab.Add(udp)
	if tab.ActiveCount() != 3 {
		t.Fatalf("active = %d", tab.ActiveCount())
	}
	fs := tab.Flush()
	if len(fs) != 3 {
		t.Fatalf("flows = %d", len(fs))
	}
	if tab.ActiveCount() != 0 {
		t.Fatal("flush did not reset")
	}
}

func TestDecomposeDeterministicOrder(t *testing.T) {
	tr, err := traffgen.Generate(traffgen.SmallTrace(3003))
	if err != nil {
		t.Fatal(err)
	}
	a, err := Decompose(tr, 2_000_000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Decompose(tr, 2_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("order not deterministic at %d", i)
		}
	}
	// Packet conservation.
	var pkts int64
	for _, f := range a {
		pkts += f.Packets
	}
	if pkts != int64(tr.Len()) {
		t.Fatalf("flow packets %d != trace %d", pkts, tr.Len())
	}
}

func TestSamplingBiasesFlowView(t *testing.T) {
	// The classic sampled-flow bias: a 1-in-k packet sample detects far
	// fewer flows than exist, and the flows it does detect look larger
	// on average (per captured packet scaling) — small flows vanish.
	tr, err := traffgen.Generate(traffgen.SmallTrace(3004))
	if err != nil {
		t.Fatal(err)
	}
	const timeout = 2_000_000
	full, err := Decompose(tr, timeout)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := core.SystematicCount{K: 50}.Select(tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	sub := &trace.Trace{Start: tr.Start, ClockUS: tr.ClockUS}
	for _, i := range idx {
		sub.Packets = append(sub.Packets, tr.Packets[i])
	}
	sampled, err := Decompose(sub, timeout*50) // scale timeout with thinning
	if err != nil {
		t.Fatal(err)
	}
	if !(len(sampled) < len(full)/2) {
		t.Fatalf("sampled flows %d not far below true %d", len(sampled), len(full))
	}
	mean := func(fs []Flow) float64 {
		c := CountFlows(fs)
		return float64(c.Packets) / float64(c.Flows)
	}
	fullMean, sampMean := mean(full), mean(sampled)
	// Detected flows are biased toward the large: estimated true
	// packets-per-flow of detected flows (sampled count × k) exceeds the
	// population mean.
	if !(sampMean*50 > fullMean) {
		t.Fatalf("no large-flow bias: sampled %v×50 vs true %v", sampMean, fullMean)
	}
}

// TestCountFlows checks the integer totals on hand-counted records.
func TestCountFlows(t *testing.T) {
	fs := []Flow{
		{Packets: 1, Bytes: 40},
		{Packets: 10, Bytes: 5520},
		{Packets: 1, Bytes: 552},
	}
	got := CountFlows(fs)
	want := Counts{Flows: 3, Packets: 12, Bytes: 6112, Singletons: 2}
	if got != want {
		t.Errorf("CountFlows = %+v, want %+v", got, want)
	}
	if (CountFlows(nil) != Counts{}) {
		t.Error("CountFlows(nil) not zero")
	}
	// Counts merge by field addition: two halves sum to the whole.
	left, right := CountFlows(fs[:1]), CountFlows(fs[1:])
	sum := Counts{
		Flows:      left.Flows + right.Flows,
		Packets:    left.Packets + right.Packets,
		Bytes:      left.Bytes + right.Bytes,
		Singletons: left.Singletons + right.Singletons,
	}
	if sum != want {
		t.Errorf("split counts sum to %+v, want %+v", sum, want)
	}
}

// refTable is the table as it was before the slab rewrite — one heap
// record per open flow, expired records copied to a closed list — kept
// test-only as the model for Flush's contents and ActiveCount.
type refTable struct {
	timeoutUS int64
	active    map[Key]*Flow
	closed    []Flow
}

func (t *refTable) Add(p trace.Packet) {
	key := KeyOf(p)
	f, ok := t.active[key]
	if ok && p.Time-f.LastUS > t.timeoutUS {
		t.closed = append(t.closed, *f)
		ok = false
	}
	if !ok {
		t.active[key] = &Flow{Key: key, Packets: 1, Bytes: int64(p.Size), FirstUS: p.Time, LastUS: p.Time}
		return
	}
	f.Packets++
	f.Bytes += int64(p.Size)
	f.LastUS = p.Time
}

func (t *refTable) Flush() []Flow {
	out := t.closed
	for _, f := range t.active {
		out = append(out, *f)
	}
	t.closed, t.active = nil, map[Key]*Flow{}
	sort.Slice(out, func(i, j int) bool {
		if out[i].FirstUS != out[j].FirstUS {
			return out[i].FirstUS < out[j].FirstUS
		}
		return lessKey(out[i].Key, out[j].Key)
	})
	return out
}

// cmpRecord orders whole records, so two flushes can be compared as
// multisets even where Flush's own order leaves a tie (the same key
// reopened in the same microsecond, possible only out of time order).
func cmpRecord(a, b Flow) int {
	if c := cmpFlow(a, b); c != 0 {
		return c
	}
	if c := cmp.Compare(a.LastUS, b.LastUS); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Packets, b.Packets); c != 0 {
		return c
	}
	return cmp.Compare(a.Bytes, b.Bytes)
}

// TestFlushMatchesSortedReference is the property behind the sort-free
// window cut: over several windows of random traffic — few keys, many
// first packets in the same microsecond, idle gaps that expire and
// reopen keys — Flush returns exactly what sorting the old table's
// records by (FirstUS, key) returns, and ActiveCount agrees before
// every cut. The out-of-order case replays the same traffic with
// timestamps jittered backwards, which must trip the full-sort
// fallback and still come out ordered.
func TestFlushMatchesSortedReference(t *testing.T) {
	for _, tc := range []struct {
		name       string
		jitterUS   int64
		outOfOrder bool
	}{
		{"time-ordered", 0, false},
		{"out-of-order", 400, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const timeoutUS = 50
			r := dist.NewRNG(77)
			tab, err := NewTable(timeoutUS)
			if err != nil {
				t.Fatal(err)
			}
			ref := &refTable{timeoutUS: timeoutUS, active: map[Key]*Flow{}}
			var now int64
			sawBackwards := false
			for window := 0; window < 40; window++ {
				for i, n := 0, 1+r.IntN(400); i < n; i++ {
					// Bursts share a microsecond; occasional gaps outlive the
					// timeout so a quiet key's next packet reopens it.
					switch u := r.Float64(); {
					case u < 0.6:
					case u < 0.97:
						now += int64(1 + r.IntN(5))
					default:
						now += int64(timeoutUS + r.IntN(4*timeoutUS))
					}
					p := pkt(now, uint16(r.IntN(24)), uint16(40+r.IntN(1400)))
					p.Src[3] = byte(r.IntN(3))
					if tc.jitterUS > 0 && r.Float64() < 0.2 {
						p.Time -= int64(r.IntN(int(tc.jitterUS)))
						sawBackwards = true
					}
					tab.Add(p)
					ref.Add(p)
				}
				if got, want := tab.ActiveCount(), len(ref.active); got != want {
					t.Fatalf("window %d: ActiveCount = %d, reference %d", window, got, want)
				}
				got, want := tab.Flush(), ref.Flush()
				if !slices.IsSortedFunc(got, cmpFlow) {
					t.Fatalf("window %d: Flush not in (FirstUS, key) order", window)
				}
				if !tc.outOfOrder && !slices.Equal(got, want) {
					t.Fatalf("window %d: Flush differs from the sorted reference", window)
				}
				got = slices.Clone(got)
				slices.SortFunc(got, cmpRecord)
				slices.SortFunc(want, cmpRecord)
				if !slices.Equal(got, want) {
					t.Fatalf("window %d: Flush holds different records than the reference (%d vs %d)",
						window, len(got), len(want))
				}
				if tab.ActiveCount() != 0 {
					t.Fatalf("window %d: Flush left %d keys open", window, tab.ActiveCount())
				}
			}
			if tc.outOfOrder != sawBackwards {
				t.Fatalf("case generated backwards timestamps = %v, want %v", sawBackwards, tc.outOfOrder)
			}
		})
	}
}

// TestFlushSliceValidUntilNextAdd pins the aliasing contract: Flush
// hands back the slab itself, so the records stay put until the table
// is offered another packet — and Decompose's result, whose table is
// never touched again, is the caller's outright.
func TestFlushSliceValidUntilNextAdd(t *testing.T) {
	tab, err := NewTable(1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	tab.Add(pkt(0, 1, 100))
	tab.Add(pkt(1, 2, 100))
	first := tab.Flush()
	kept := slices.Clone(first)
	if again := tab.Flush(); len(again) != 0 {
		t.Fatalf("second Flush returned %d records", len(again))
	}
	if !slices.Equal(first, kept) {
		t.Fatal("records changed before the next Add")
	}
	tab.Add(pkt(2, 3, 100))
	if first[0] == kept[0] {
		t.Fatal("Add after Flush did not reuse the slab; the documented lifetime is wrong")
	}
}

// TestSlabIndexRefusesToWrap covers the checked path that keeps an
// index cell — slab position + 1 in a uint32 — from aliasing the empty
// cell at 2^32 - 1 records.
func TestSlabIndexRefusesToWrap(t *testing.T) {
	if got := slabIndex(math.MaxUint32 - 1); got != math.MaxUint32 {
		t.Fatalf("slabIndex(MaxUint32-1) = %d", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("slabIndex(2^32-1) wrapped to the empty cell instead of panicking")
		}
	}()
	slabIndex(math.MaxUint32)
}

// TestKeyHashPacksTupleWords pins the word layout Key.Hash shares with
// the ingest kernel: addresses little-endian in w1, ports and protocol
// in w2.
func TestKeyHashPacksTupleWords(t *testing.T) {
	k := Key{Src: packet.Addr{1, 2, 3, 4}, Dst: packet.Addr{5, 6, 7, 8}, SrcPort: 0x0a09, DstPort: 0x0c0b, Proto: 0x0d}
	if got, want := k.Hash(), TupleHash(0x0807060504030201, 0x0d0c0b0a09); got != want {
		t.Fatalf("Key.Hash = %#x, TupleHash over the packed words = %#x", got, want)
	}
}

// meanProbe is the mean number of cells a lookup of a present key reads
// in an index over slab.
func meanProbe[E keyed](index []uint32, shift uint, slab []E) float64 {
	mask := uint32(len(index) - 1)
	var cells, keys float64
	for pos, c := range index {
		if c != 0 {
			cells += float64((uint32(pos)-cell(slab[c-1].flowKey().Hash(), shift))&mask + 1)
			keys++
		}
	}
	return cells / keys
}

func (t *Table) meanProbe() float64   { return meanProbe(t.index, t.shift, t.recs) }
func (c *Counter) meanProbe() float64 { return meanProbe(c.index, c.shift, c.slots) }

// TestShardTablesProbeLikeOneTable holds the index to its own bits: a
// shard's counter sees only keys whose hash is s mod n, and must probe
// no longer for that than an unpartitioned table holding as many keys of
// the same SYN flood. An index on the hash's low bits fails it — every
// key of a shard of 2 agrees in bit 0, so half the cells are nobody's
// home.
func TestShardTablesProbeLikeOneTable(t *testing.T) {
	sc, err := traffgen.PresetScenario("ddos", 4242, 2*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := traffgen.GenerateScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	newTable := func() *Table {
		tab, err := NewTable(math.MaxInt64)
		if err != nil {
			t.Fatal(err)
		}
		return tab
	}
	for _, shards := range []uint32{2, 3, 4, 8} {
		tabs := make([]*Counter, shards)
		for s := range tabs {
			if tabs[s], err = NewCounter(math.MaxInt64); err != nil {
				t.Fatal(err)
			}
		}
		for _, p := range tr.Packets {
			h := KeyOf(p).Hash()
			tabs[h%shards].AddHashed(h, p)
		}
		for s, tab := range tabs {
			if tab.ActiveCount() < 1000 {
				t.Fatalf("shards=%d: shard %d holds %d keys; too few to compare", shards, s, tab.ActiveCount())
			}
			one := newTable()
			for i := 0; one.ActiveCount() < tab.ActiveCount(); i++ {
				one.Add(tr.Packets[i])
			}
			if got, want := tab.meanProbe(), one.meanProbe(); got > 1.1*want {
				t.Errorf("shards=%d: shard %d reads %.3f cells a lookup over %d keys, one table %.3f",
					shards, s, got, tab.ActiveCount(), want)
			}
		}
	}
}

// TestCollidingRunMatchesReference drives the index where it is least
// like a map: twelve keys brute-forced to share a home cell (at 64
// cells, so at 16 and 32 too) go through first packets, hits, the grow
// their ninth forces mid-run, an idle gap after which keys are
// repointed at fresh records, and Flush — twice, the second window on
// the cleared index — and every cut must equal the map-backed
// reference's record for record.
func TestCollidingRunMatchesReference(t *testing.T) {
	const timeoutUS = 100
	var run []trace.Packet
	for port := uint16(0); len(run) < 12; port++ {
		p := pkt(0, port, 64)
		if cell(KeyOf(p).Hash(), 64-6) == 37 {
			run = append(run, p)
		}
	}
	tab, err := NewTable(timeoutUS)
	if err != nil {
		t.Fatal(err)
	}
	ref := &refTable{timeoutUS: timeoutUS, active: map[Key]*Flow{}}
	var now int64
	add := func(gapUS int64, keys ...int) {
		for _, k := range keys {
			now += gapUS
			p := run[k]
			p.Time = now
			tab.Add(p)
			ref.Add(p)
		}
	}
	cut := func(window string) {
		t.Helper()
		if got, want := tab.ActiveCount(), len(ref.active); got != want {
			t.Fatalf("%s: ActiveCount = %d, reference %d", window, got, want)
		}
		if got, want := tab.Flush(), ref.Flush(); !slices.Equal(got, want) {
			t.Fatalf("%s: Flush differs from the reference:\n got %+v\nwant %+v", window, got, want)
		}
	}
	add(1, 0, 1, 2, 3, 4, 5)
	add(1, 2, 0, 5, 5)
	if len(tab.index) != minCells {
		t.Fatalf("index has %d cells before the ninth key, want %d", len(tab.index), minCells)
	}
	add(1, 6, 7, 8, 9)
	if len(tab.index) != 2*minCells {
		t.Fatalf("index has %d cells after the ninth key, want %d", len(tab.index), 2*minCells)
	}
	add(1, 0, 8, 3, 9)
	add(timeoutUS+1, 1) // every open flow is now idle past the timeout
	add(1, 1, 8, 0, 10, 11, 8, 1, 10)
	if tab.meanProbe() < 4 {
		t.Fatalf("mean probe %.2f: the keys do not share a run", tab.meanProbe())
	}
	cut("first window")
	add(1, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 7, 11, 0)
	add(timeoutUS+1, 6, 6)
	cut("second window")
}

// TestTableAddDoesNotAllocAfterFlush pins the insert path: once one
// window has sized the slab and the key map, a window of all-new flows
// — every Add a map insert and a slab append — allocates nothing, and
// neither does the cut.
func TestTableAddDoesNotAllocAfterFlush(t *testing.T) {
	tab, err := NewTable(1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	const perWindow = 4096
	var now int64
	var port uint16
	window := func() {
		for i := 0; i < perWindow; i++ {
			now += 3
			port++
			tab.Add(pkt(now, port, 64))
		}
		if got := CountFlows(tab.Flush()).Flows; got != perWindow {
			t.Fatalf("window held %d flows, want %d", got, perWindow)
		}
	}
	window() // warm-up: grows the slab and the map's buckets
	if avg := testing.AllocsPerRun(20, window); avg != 0 {
		t.Errorf("a warm window of %d new flows allocates %.1f times", perWindow, avg)
	}
}

// TestCounterMatchesTable is the property behind the shard's counting
// cut: over random streams — few or many keys, bursts sharing a
// microsecond, gaps that idle-expire and reopen keys, timestamps
// jittered backwards, and many cut/reuse cycles on one counter — Cut
// returns CountFlows of the Flush of a Table offered the same packets,
// and ActiveCount agrees with the table's at every step.
func TestCounterMatchesTable(t *testing.T) {
	for _, tc := range []struct {
		name     string
		ports    int   // distinct source ports (× 3 sources) in play
		jitterUS int64 // how far a packet may step back in time
	}{
		{"few-keys", 24, 0},
		{"many-keys", 4000, 0},
		{"few-keys-out-of-order", 24, 400},
		{"many-keys-out-of-order", 4000, 400},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const timeoutUS = 50
			r := dist.NewRNG(uint64(1 + tc.ports + int(tc.jitterUS)))
			ctr, err := NewCounter(timeoutUS)
			if err != nil {
				t.Fatal(err)
			}
			var now int64
			for window := 0; window < 60; window++ {
				tab, err := NewTable(timeoutUS)
				if err != nil {
					t.Fatal(err)
				}
				for i, n := 0, r.IntN(3000); i < n; i++ {
					switch u := r.Float64(); {
					case u < 0.6:
					case u < 0.97:
						now += int64(1 + r.IntN(5))
					default:
						now += int64(timeoutUS + r.IntN(4*timeoutUS))
					}
					p := pkt(now, uint16(r.IntN(tc.ports)), uint16(40+r.IntN(1400)))
					p.Src[3] = byte(r.IntN(3))
					if tc.jitterUS > 0 && r.Float64() < 0.2 {
						p.Time -= int64(r.IntN(int(tc.jitterUS)))
					}
					tab.Add(p)
					ctr.AddHashed(KeyOf(p).Hash(), p)
					if got, want := ctr.ActiveCount(), tab.ActiveCount(); got != want {
						t.Fatalf("window %d packet %d: ActiveCount = %d, table %d", window, i, got, want)
					}
				}
				if got, want := ctr.Cut(), CountFlows(tab.Flush()); got != want {
					t.Fatalf("window %d: Cut = %+v, table %+v", window, got, want)
				}
				if ctr.ActiveCount() != 0 {
					t.Fatalf("window %d: Cut left %d keys", window, ctr.ActiveCount())
				}
			}
		})
	}
}

func TestNewCounterValidation(t *testing.T) {
	if _, err := NewCounter(0); err != ErrBadTimeout {
		t.Error("zero timeout accepted")
	}
}

// TestCounterSlotIs24Bytes pins the per-key state the shard keeps: the
// key, the singleton flag in the key's padding, and the last timestamp
// — half a Flow.
func TestCounterSlotIs24Bytes(t *testing.T) {
	if got := unsafe.Sizeof(slot{}); got != 24 {
		t.Errorf("slot is %d bytes, want 24", got)
	}
	if got := unsafe.Sizeof(Flow{}); got != 48 {
		t.Errorf("Flow is %d bytes, want 48", got)
	}
}

// TestCounterAddDoesNotAllocAfterCut is TestTableAddDoesNotAllocAfterFlush
// for the counter: once one window has sized the slots and the index, a
// window of all-new flows allocates nothing, and neither does the cut.
func TestCounterAddDoesNotAllocAfterCut(t *testing.T) {
	ctr, err := NewCounter(1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	const perWindow = 4096
	var now int64
	var port uint16
	window := func() {
		for i := 0; i < perWindow; i++ {
			now += 3
			port++
			p := pkt(now, port, 64)
			ctr.AddHashed(KeyOf(p).Hash(), p)
		}
		if got := ctr.Cut().Flows; got != perWindow {
			t.Fatalf("window held %d flows, want %d", got, perWindow)
		}
	}
	window() // warm-up: grows the slots and the index
	if avg := testing.AllocsPerRun(20, window); avg != 0 {
		t.Errorf("a warm window of %d new flows allocates %.1f times", perWindow, avg)
	}
}
