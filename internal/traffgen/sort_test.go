package traffgen

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"testing"
	"time"

	"netsample/internal/packet"
	"netsample/internal/trace"
)

// checkSort holds sortPackets to its oracle: pdqsort under the same
// total comparator. The order is total up to identical packets, so the
// two must agree element for element — on one worker, and on three,
// where the buckets split unevenly and some ranges may be empty.
func checkSort(t *testing.T, name string, pkts []trace.Packet) {
	t.Helper()
	want := slices.Clone(pkts)
	slices.SortFunc(want, comparePackets)
	for _, workers := range []int{1, 3} {
		got := slices.Clone(pkts)
		sortPackets(got, 0, workers)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s, %d workers: position %d of %d: got %+v, want %+v", name, workers, i, len(got), got[i], want[i])
			}
		}
	}
}

func TestSortPacketsMatchesReference(t *testing.T) {
	// Hand-built shapes, each aimed at one branch of the sort.
	ramp := func(n int, time func(i int) int64) []trace.Packet {
		pkts := make([]trace.Packet, n)
		for i := range pkts {
			pkts[i] = trace.Packet{Time: time(i), Size: uint16(40 + i%7), SrcPort: uint16(i)}
		}
		return pkts
	}
	const n = 100_000
	// One µs, 200 000 distinct port pairs, descending: the run of equal
	// times that an insertion-sort leaf would take n²/2 moves over.
	tied := make([]trace.Packet, 200_000)
	for i := range tied {
		j := len(tied) - 1 - i
		tied[i] = trace.Packet{Time: 1_000_000, Size: 40, SrcPort: uint16(j >> 8), DstPort: uint16(j)}
	}
	// m packets in top bucket 0 (times below 2^21; the span sets the
	// top digit at bit 22), 1000 in buckets of their own far above.
	topBucket := func(m int) []trace.Packet {
		return ramp(m+1000, func(i int) int64 {
			if i < m {
				return int64(i * 7919 % (1 << 21))
			}
			return 1<<28 + int64(i)*4096
		})
	}
	dup := trace.Packet{Time: 7, Size: 552, Protocol: packet.ProtoTCP, Src: packet.Addr{1, 2, 3, 4}, DstPort: 20}
	dups := []trace.Packet{dup}
	for i := 0; i < 50; i++ {
		dups = append(dups, dup, trace.Packet{Time: 7}, trace.Packet{Time: 3, Size: 1})
	}
	shapes := []struct {
		name string
		pkts []trace.Packet
	}{
		{"empty", nil},
		{"one", []trace.Packet{dup}},
		{"sorted", ramp(n, func(i int) int64 { return int64(i) * 37 })},
		{"reversed", ramp(n, func(i int) int64 { return int64(n-i) * 37 })},
		{"all-times-equal", tied},
		// Every time but the first shares the top digit: one bucket
		// holds n-1 packets at the first level.
		{"one-top-bucket", ramp(n, func(i int) int64 { return int64(min(i, 1))<<30 + int64(i*7919%4096) })},
		// A far outlier: the radix descends five levels of one full
		// bucket before the rest's times start to differ.
		{"time-2^40", ramp(n, func(i int) int64 { return int64(1-min(i, 1))<<40 + int64(i*7919%65536) })},
		// Past the 48 time bits a key holds: flag passes until the
		// bucket fits a key and 2^16 packets.
		{"time-2^60", ramp(n, func(i int) int64 { return int64(1-min(i, 1))<<60 + int64(i*7919%65536) })},
		{"negative-times", ramp(n, func(i int) int64 { return int64(i*7919%65536) - 32768 })},
		// Every top bucket keyed, every time negative.
		{"negative-keyed-buckets", ramp(n, func(i int) int64 { return int64(i*7919%65536) - 1<<40 })},
		// A keyed bucket holding a 1000-packet run of one time (pdqsort)
		// among pairs of equal times (insertion).
		{"long-run-in-keyed-bucket", ramp(5000, func(i int) int64 {
			if i%5 == 0 {
				return 777
			}
			return int64(i/2) * 37
		})},
		// The widest bucket the keyed pass takes, and one more packet.
		{"top-bucket-2^16", topBucket(1 << 16)},
		{"top-bucket-2^16+1", topBucket(1<<16 + 1)},
		{"ties-by-every-field", []trace.Packet{
			{Time: 5, DstPort: 1}, {Time: 5, SrcPort: 1}, {Time: 5, Dst: packet.Addr{0, 0, 0, 1}},
			{Time: 5, Src: packet.Addr{0, 0, 1, 0}}, {Time: 5, Src: packet.Addr{0, 0, 0, 255}},
			{Time: 5, TCPFlags: 1}, {Time: 5, Protocol: 1}, {Time: 5, Size: 1}, {Time: 5}, {Time: 4, Size: 9},
		}},
		{"duplicates", dups},
	}
	for _, s := range shapes {
		checkSort(t, s.name, s.pkts)
	}

	// The generator's own staging: every pinned trace (TestTraceDigests)
	// before finishTrace sorts it. TestTraceDigests already sorts the
	// full-size ones on several workers, so -race runs skip them here.
	scenarios := []Scenario{{Name: "small/seed1", Base: SmallTrace(1)}}
	if !testing.Short() && !raceEnabled {
		scenarios = append(scenarios, Scenario{Name: "hour", Base: NSFNETHour()}, Scenario{Name: "fixwest", Base: FIXWest()})
		for _, name := range ScenarioNames() {
			s, err := PresetScenario(name, 1993, 20*time.Minute)
			if err != nil {
				t.Fatal(err)
			}
			scenarios = append(scenarios, s)
		}
	}
	for _, s := range scenarios {
		pkts, _, err := stageScenario(s)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		checkSort(t, s.Name, pkts)
	}
}

// fuzzPackets decodes fuzz input: a first byte that places the times
// (a left shift, so every radix level and the sign bit are reachable),
// then four bytes per packet — a 16-bit signed time, narrow enough that
// ties are common, and two tie-break fields.
func fuzzPackets(data []byte) []trace.Packet {
	if len(data) == 0 {
		return nil
	}
	shift := data[0] % 49
	data = data[1:]
	pkts := make([]trace.Packet, 0, len(data)/4)
	for ; len(data) >= 4; data = data[4:] {
		pkts = append(pkts, trace.Packet{
			Time:    int64(int16(binary.LittleEndian.Uint16(data))) << shift,
			Size:    uint16(data[2]),
			SrcPort: uint16(data[3]),
		})
	}
	return pkts
}

// fuzzSeeds are the checked-in corpus entries (TestGenSortCorpus writes
// them under testdata/fuzz/FuzzSortPackets): each is long enough to
// leave the insertion leaf and reach the radix pass.
func fuzzSeeds() map[string][]byte {
	build := func(shift byte, pkt func(i int) (time int16, size, port byte)) []byte {
		out := []byte{shift}
		for i := 0; i < 48; i++ {
			tm, size, port := pkt(i)
			out = binary.LittleEndian.AppendUint16(out, uint16(tm))
			out = append(out, size, port)
		}
		return out
	}
	return map[string][]byte{
		"spread_signed_full_width": build(48, func(i int) (int16, byte, byte) { return int16(i * 7919), byte(i), 0 }),
		"one_time_many_ports":      build(20, func(i int) (int16, byte, byte) { return 77, 40, byte(255 - i) }),
		"narrow_range_with_outlier": build(0, func(i int) (int16, byte, byte) {
			if i == 20 {
				return 1 << 14, 0, 0
			}
			return int16(i * 5 % 16), 1, byte(i % 3)
		}),
		"duplicates": build(9, func(i int) (int16, byte, byte) { return int16(i % 4), 9, 9 }),
	}
}

// FuzzSortPackets searches for a packet slice on which the radix sort
// and pdqsort under the same comparator part ways.
func FuzzSortPackets(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		checkSort(t, "fuzz", fuzzPackets(data))
	})
}

// TestGenSortCorpus regenerates the checked-in fuzz seed corpus. Run
// explicitly with NSGEN_CORPUS=1; normal test runs skip it.
func TestGenSortCorpus(t *testing.T) {
	if os.Getenv("NSGEN_CORPUS") == "" {
		t.Skip("corpus generator; set NSGEN_CORPUS=1 to regenerate testdata/fuzz")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzSortPackets")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, data := range fuzzSeeds() {
		content := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(data)))
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
