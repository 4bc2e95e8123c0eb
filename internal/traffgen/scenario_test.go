package traffgen

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"netsample/internal/packet"
	"netsample/internal/trace"
)

// packetBytes is the canonical 24-byte encoding of one packet's fields
// that the digests below are taken over.
func packetBytes(p *trace.Packet) (buf [24]byte) {
	binary.LittleEndian.PutUint64(buf[0:], uint64(p.Time))
	binary.LittleEndian.PutUint16(buf[8:], p.Size)
	buf[10] = byte(p.Protocol)
	buf[11] = byte(p.TCPFlags)
	copy(buf[12:16], p.Src[:])
	copy(buf[16:20], p.Dst[:])
	binary.LittleEndian.PutUint16(buf[20:], p.SrcPort)
	binary.LittleEndian.PutUint16(buf[22:], p.DstPort)
	return buf
}

// hashTrace digests every field of every packet, so two traces hash
// equal iff they are packet-for-packet identical.
func hashTrace(tr *trace.Trace) uint64 {
	h := fnv.New64a()
	for i := range tr.Packets {
		buf := packetBytes(&tr.Packets[i])
		h.Write(buf[:])
	}
	return h.Sum64()
}

// hashTimes digests the Time column alone: it moves iff some position's
// timestamp moves, whatever packet carries it.
func hashTimes(tr *trace.Trace) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for i := range tr.Packets {
		binary.LittleEndian.PutUint64(buf[:], uint64(tr.Packets[i].Time))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// hashMultiset is the wrapping sum of every packet's own digest: it is
// blind to order and moves iff the multiset of packets does.
func hashMultiset(tr *trace.Trace) uint64 {
	var sum uint64
	h := fnv.New64a()
	for i := range tr.Packets {
		h.Reset()
		buf := packetBytes(&tr.Packets[i])
		h.Write(buf[:])
		sum += h.Sum64()
	}
	return sum
}

func mustScenario(t *testing.T, name string, seed uint64, dur time.Duration) *trace.Trace {
	t.Helper()
	s, err := PresetScenario(name, seed, dur)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := GenerateScenario(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Packets) == 0 {
		t.Fatalf("scenario %s generated no packets", name)
	}
	return tr
}

// roundTripFile writes tr as an NSTR file and maps it back: the mapped
// file's own records, as a Trace, must be tr packet for packet — at
// full size, the file the pinned packets' memory becomes is the file
// their encoding would be.
func roundTripFile(t *testing.T, name string, tr *trace.Trace) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.nstr")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer os.Remove(path) // nine full-size files: free each before the next
	err = trace.Write(f, tr)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatalf("%s: Write: %v", name, err)
	}
	mr, err := trace.OpenMap(path)
	if err != nil {
		t.Fatalf("%s: OpenMap: %v", name, err)
	}
	defer mr.Close()
	if got, err := mr.Trace(); err != nil || !slices.Equal(got.Packets, tr.Packets) ||
		got.ClockUS != tr.ClockUS || !got.Start.Equal(tr.Start) {
		t.Errorf("%s: Write → OpenMap().Trace() is not the trace (err=%v)", name, err)
	}
}

// TestTraceDigests pins every generated trace absolutely, packet for
// packet. Two runs of one binary agreeing (the Deterministic tests)
// cannot see a changed generator; these digests can. finishTrace sorts
// under a total order (comparePackets), so they pin the generator and
// nothing else: any correct sort, on any toolchain, produces them.
//
// The times and multiset columns are blind to the order of tied
// packets. They were recorded while the sort was pdqsort on Time alone
// and tie order was whatever it left; replacing it with the total order
// moved every digest and neither of them — only tied packets changed
// places (284 positions of the seed-1993 hour).
//
// Each trace is also round-tripped through its NSTR file (roundTripFile).
func TestTraceDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("generates nine full-size traces")
	}
	plain := func(cfg Config) func() (*trace.Trace, error) {
		return func() (*trace.Trace, error) { return Generate(cfg) }
	}
	// Every preset at seed 1993, 20 minutes (nsbench's ddos trace).
	preset := func(name string) func() (*trace.Trace, error) {
		return func() (*trace.Trace, error) {
			s, err := PresetScenario(name, 1993, 20*time.Minute)
			if err != nil {
				return nil, err
			}
			return GenerateScenario(s)
		}
	}
	hour1993 := NSFNETHour()
	hour1993.Seed = 1993
	cases := []struct {
		name     string
		gen      func() (*trace.Trace, error)
		digest   uint64
		times    uint64
		multiset uint64
		n        int
	}{
		{"hour", Hour, 0x5b0f8cfa8956ff14, 0x9673904f2e88ca37, 0x9c3d96caf27a2e9e, 1526873},
		{"hour/seed1993", plain(hour1993), 0x3cf8750c4f2fec9a, 0x4afefb9201d741c7, 0xc13124ac8856ca38, 1526513},
		{"small/seed1", plain(SmallTrace(1)), 0xe25511e214ca1adc, 0xdae0db99ca643306, 0x8dbae131ae14fc74, 51451},
		{"fixwest", plain(FIXWest()), 0x484fb15771a41d44, 0x7d947be0256983eb, 0x89747384a477f3f8, 2196883},
		{"ddos", preset("ddos"), 0xa5133b5aafb551e5, 0x89fd5a5485567bb3, 0xdcacad7ba5ab27e7, 2035797},
		{"flashcrowd", preset("flashcrowd"), 0xc338423b810bd8c2, 0x6da6e4516b70956d, 0x910e50ee06a8abee, 1196279},
		{"hhchurn", preset("hhchurn"), 0x05bc67211b4eccd1, 0x579d5432896afecc, 0x5892aff9335a9ff0, 1277112},
		{"portscan", preset("portscan"), 0xf0ceb12943c7972d, 0xf56a9d4c92b65db6, 0x8774dc54c1d16ef3, 662037},
		{"elephantmice", preset("elephantmice"), 0x5eb4aedbd27acecc, 0xabd4055b8ed04485, 0x8d57c04d4a111b80, 1018563},
	}
	pinned := map[string]bool{}
	for _, c := range cases {
		pinned[c.name] = true
		tr, err := c.gen()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := hashTrace(tr); got != c.digest || len(tr.Packets) != c.n {
			t.Errorf("%s: digest %016x n=%d, want %016x n=%d", c.name, got, len(tr.Packets), c.digest, c.n)
		}
		if got := hashTimes(tr); got != c.times {
			t.Errorf("%s: Time-column digest %016x, want %016x", c.name, got, c.times)
		}
		if got := hashMultiset(tr); got != c.multiset {
			t.Errorf("%s: multiset digest %016x, want %016x", c.name, got, c.multiset)
		}
		roundTripFile(t, c.name, tr)
	}
	for _, name := range ScenarioNames() {
		if !pinned[name] {
			t.Errorf("preset %s has no pinned digest", name)
		}
	}
}

// TestTraceDigestsAnyGOMAXPROCS reruns TestTraceDigests at one to four
// procs (skipping the setting it has already run at): the traces past
// fanout.MinPackets are staged and sorted on that many workers — at
// three, the flood's blocks split unevenly — and all nine digests must
// hold on each.
func TestTraceDigestsAnyGOMAXPROCS(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("TestTraceDigests already runs these traces at the default GOMAXPROCS")
	}
	initial := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(initial)
	for _, procs := range []int{1, 2, 3, 4} {
		if procs != initial {
			runtime.GOMAXPROCS(procs)
			t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), TestTraceDigests)
		}
	}
}

func TestScenarioPresetsDeterministic(t *testing.T) {
	// Fixed seed => hash-identical trace; a different seed must move
	// the hash.
	for _, name := range ScenarioNames() {
		a := hashTrace(mustScenario(t, name, 7, time.Minute))
		b := hashTrace(mustScenario(t, name, 7, time.Minute))
		if a != b {
			t.Errorf("%s: two runs at the same seed hash %x vs %x", name, a, b)
		}
		c := hashTrace(mustScenario(t, name, 8, time.Minute))
		if a == c {
			t.Errorf("%s: seeds 7 and 8 hash identically", name)
		}
	}
}

func TestScenarioBaselineMatchesGenerate(t *testing.T) {
	// A scenario with no phases is exactly the plain Generate trace:
	// the shared aggregate helper consumes the identical RNG stream.
	cfg := SmallTrace(11)
	plain, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	scen, err := GenerateScenario(Scenario{Name: "baseline", Base: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if hashTrace(plain) != hashTrace(scen) {
		t.Fatal("phase-free scenario diverged from Generate for the same Config")
	}
}

func TestScenarioValidation(t *testing.T) {
	if _, err := PresetScenario("nope", 1, time.Minute); err == nil {
		t.Error("unknown preset accepted")
	}
	base := SmallTrace(1)
	bad := []Scenario{
		{Base: base, Phases: []Phase{{Start: 0.5, End: 0.5, TargetPPS: 10, Mix: &Mix{Bulk: 1}}}},
		{Base: base, Phases: []Phase{{Start: -0.1, End: 0.5, TargetPPS: 10, Mix: &Mix{Bulk: 1}}}},
		{Base: base, Phases: []Phase{{Start: 0, End: 1.5, TargetPPS: 10, Mix: &Mix{Bulk: 1}}}},
		{Base: base, Phases: []Phase{{Start: 0, End: 1, TargetPPS: 0, Mix: &Mix{Bulk: 1}}}},
		{Base: base, Phases: []Phase{{Start: 0, End: 1, TargetPPS: 10}}},                                              // neither source
		{Base: base, Phases: []Phase{{Start: 0, End: 1, TargetPPS: 10, Mix: &Mix{Bulk: 1}, model: newElephantModel}}}, // both
		{Base: base, Phases: []Phase{{Start: 0, End: 1, TargetPPS: 10, Mix: &Mix{}}}},                                 // zero mix
		// NaN passes every < / <= / >= test the checks were written as.
		{Base: base, Phases: []Phase{{Start: math.NaN(), End: 0.5, TargetPPS: 10, Mix: &Mix{Bulk: 1}}}},
		{Base: base, Phases: []Phase{{Start: 0, End: math.NaN(), TargetPPS: 10, Mix: &Mix{Bulk: 1}}}},
		{Base: base, Phases: []Phase{{Start: 0, End: 1, TargetPPS: math.NaN(), Mix: &Mix{Bulk: 1}}}},
		{Base: base, Phases: []Phase{{Start: 0, End: 1, TargetPPS: math.Inf(1), Mix: &Mix{Bulk: 1}}}},
		{Base: base, Phases: []Phase{{Start: 0, End: 1, TargetPPS: 10, Mix: &Mix{Bulk: 1, ICMP: math.NaN()}}}},
		{Base: base, Phases: []Phase{{Start: 0, End: 1, TargetPPS: 10, Envelope: EnvelopeConfig{TrendPerHour: math.NaN()}, model: newElephantModel}}},
	}
	for i, s := range bad {
		if _, err := GenerateScenario(s); err == nil {
			t.Errorf("bad scenario %d accepted", i)
		}
	}
	// Each part is under 2^32 packets; the whole is not. Called on
	// validate alone: were the check missing, staging would fill ~170 GB.
	huge := Scenario{Base: base, Phases: []Phase{
		{Start: 0, End: 1, TargetPPS: 3e7, model: newElephantModel},
		{Start: 0, End: 1, TargetPPS: 3e7, model: newElephantModel},
	}}
	if err := huge.validate(); err == nil || !strings.Contains(err.Error(), "exceeds 2^32") {
		t.Errorf("7.2e9 packets over two phases: got %v, want the count refused", err)
	}
}

// windowStats aggregates the packets with time in [fromFrac, toFrac) of
// durUS.
func windowStats(tr *trace.Trace, durUS int64, fromFrac, toFrac float64) (pps float64, pkts []trace.Packet) {
	lo := int64(fromFrac * float64(durUS))
	hi := int64(toFrac * float64(durUS))
	for _, p := range tr.Packets {
		if p.Time >= lo && p.Time < hi {
			pkts = append(pkts, p)
		}
	}
	seconds := float64(hi-lo) / 1e6
	return float64(len(pkts)) / seconds, pkts
}

type tuple struct {
	src, dst         packet.Addr
	srcPort, dstPort uint16
	proto            packet.Protocol
}

func tupleOf(p trace.Packet) tuple {
	return tuple{p.Src, p.Dst, p.SrcPort, p.DstPort, p.Protocol}
}

func TestDDoSCalibration(t *testing.T) {
	const dur = 2 * time.Minute
	tr := mustScenario(t, "ddos", 21, dur)
	durUS := dur.Microseconds()
	burstPPS, burst := windowStats(tr, durUS, 0.3, 0.6)
	prePPS, pre := windowStats(tr, durUS, 0, 0.3)
	if burstPPS < 5*prePPS {
		t.Fatalf("burst amplitude %.0f pps vs %.0f baseline; want >= 5x", burstPPS, prePPS)
	}
	synFrac := func(pkts []trace.Packet) float64 {
		n := 0
		for _, p := range pkts {
			if p.TCPFlags&packet.TCPSyn != 0 && p.Size == 40 {
				n++
			}
		}
		return float64(n) / float64(len(pkts))
	}
	if f := synFrac(burst); f < 0.6 {
		t.Fatalf("burst SYN fraction %.2f, want >= 0.6", f)
	}
	if f := synFrac(pre); f > 0.05 {
		t.Fatalf("baseline SYN fraction %.2f, want <= 0.05", f)
	}
}

func TestFlashCrowdCalibration(t *testing.T) {
	const dur = 2 * time.Minute
	tr := mustScenario(t, "flashcrowd", 22, dur)
	durUS := dur.Microseconds()
	crowdPPS, crowd := windowStats(tr, durUS, 0.4, 0.85)
	prePPS, _ := windowStats(tr, durUS, 0, 0.4)
	if crowdPPS < 2.5*prePPS {
		t.Fatalf("crowd rate %.0f pps vs %.0f baseline; want >= 2.5x", crowdPPS, prePPS)
	}
	// The crowd converges on one hot server.
	byDst := map[packet.Addr]int{}
	for _, p := range crowd {
		byDst[p.Dst]++
	}
	top := 0
	for _, c := range byDst {
		if c > top {
			top = c
		}
	}
	if frac := float64(top) / float64(len(crowd)); frac < 0.4 {
		t.Fatalf("hot server carries %.2f of crowd packets, want >= 0.4", frac)
	}
}

func TestHeavyHitterChurnCalibration(t *testing.T) {
	const dur = 2 * time.Minute
	tr := mustScenario(t, "hhchurn", 23, dur)
	durUS := dur.Microseconds()
	tops := make([]tuple, 0, 4)
	for q := 0; q < 4; q++ {
		_, pkts := windowStats(tr, durUS, float64(q)*0.25, float64(q+1)*0.25)
		counts := map[tuple]int{}
		for _, p := range pkts {
			counts[tupleOf(p)]++
		}
		var top tuple
		best := 0
		for k, c := range counts {
			if c > best {
				best, top = c, k
			}
		}
		if frac := float64(best) / float64(len(pkts)); frac < 0.25 {
			t.Fatalf("quarter %d: planted elephant carries %.2f of packets, want >= 0.25", q, frac)
		}
		tops = append(tops, top)
	}
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			if tops[i] == tops[j] {
				t.Fatalf("quarters %d and %d share the top flow %+v: no churn", i, j, tops[i])
			}
		}
	}
}

func TestPortScanCalibration(t *testing.T) {
	const dur = 2 * time.Minute
	tr := mustScenario(t, "portscan", 24, dur)
	durUS := dur.Microseconds()
	_, scan := windowStats(tr, durUS, 0.2, 0.8)
	_, pre := windowStats(tr, durUS, 0, 0.2)
	ports := map[uint16]bool{}
	for _, p := range scan {
		if p.Size == 40 && p.TCPFlags&packet.TCPSyn != 0 {
			ports[p.DstPort] = true
		}
	}
	if len(ports) < 1000 {
		t.Fatalf("scan probed %d distinct ports, want >= 1000", len(ports))
	}
	// Active-flow pressure: the scan window must hold far more distinct
	// 5-tuples per second than the baseline-only window.
	distinctPerSec := func(pkts []trace.Packet, seconds float64) float64 {
		set := map[tuple]bool{}
		for _, p := range pkts {
			set[tupleOf(p)] = true
		}
		return float64(len(set)) / seconds
	}
	scanRate := distinctPerSec(scan, 0.6*dur.Seconds())
	preRate := distinctPerSec(pre, 0.2*dur.Seconds())
	if scanRate < 2*preRate {
		t.Fatalf("scan window active-flow rate %.1f/s vs %.1f/s baseline; want >= 2x", scanRate, preRate)
	}
}

func TestElephantMiceCalibration(t *testing.T) {
	const dur = 2 * time.Minute
	tr := mustScenario(t, "elephantmice", 25, dur)
	bytesBy := map[tuple]int64{}
	var total int64
	for _, p := range tr.Packets {
		bytesBy[tupleOf(p)] += int64(p.Size)
		total += int64(p.Size)
	}
	sizes := make([]int64, 0, len(bytesBy))
	for _, b := range bytesBy {
		sizes = append(sizes, b)
	}
	sort.Slice(sizes, func(i, j int) bool { return sizes[i] > sizes[j] })
	var acc int64
	covering := 0
	for _, b := range sizes {
		acc += b
		covering++
		if acc*2 >= total {
			break
		}
	}
	if frac := float64(covering) / float64(len(sizes)); frac > 0.02 {
		t.Fatalf("half the bytes need %.3f of the flows, want <= 0.02 (skew missing)", frac)
	}
}
