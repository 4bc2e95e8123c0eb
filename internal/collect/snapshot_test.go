package collect

import (
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"netsample/internal/arts"
	"netsample/internal/flows"
	"netsample/internal/metrics"
	"netsample/internal/nnstat"
)

// sampleSnapshot builds a fully-populated snapshot for round-trip
// tests, including non-finite report fields to pin bit-exact float
// transport.
func sampleSnapshot() *Snapshot {
	return &Snapshot{
		Node:          "nsd-test",
		Seq:           7,
		WindowStartUS: -1_000_000, // negative bounds must survive the round trip
		WindowEndUS:   119_000_001,
		Final:         true,
		Shards:        4,
		Offered:       50_880,
		Processed:     50_000,
		Selected:      1_018,
		Dropped:       880,
		SizeCounts:    []uint64{400, 500, 118},
		IatCounts:     []uint64{100, 200, 300, 250, 167},
		SizeReport: &metrics.Report{
			ChiSquare: 1.25, Significance: 0.73, Cost: 1234.5,
			RelativeCost: 0.4, PaxsonX2: 2.5, AvgNormDev: 0.01,
			Phi: 0.0421,
		},
		IatReport: &metrics.Report{
			ChiSquare: math.Inf(1), Significance: math.NaN(), Cost: -0.0,
			RelativeCost: math.SmallestNonzeroFloat64, PaxsonX2: 0,
			AvgNormDev: 1e300, Phi: 0.5,
		},
		FlowCounts:  flows.Counts{Flows: 321, Packets: 1018, Bytes: 400_000, Singletons: 100},
		ActiveFlows: 12,
		TopK: []nnstat.Entry{
			{Key: "\x0a\x00\x00\x01\x0a\x00\x00\x02\x00\x04\x00\x50\x06", Count: 40, MaxError: 2},
			{Key: "pair-b", Count: 30, MaxError: 0},
		},
	}
}

// snapshotsBitEqual compares snapshots with float fields by bit
// pattern, so NaN-carrying reports compare equal to themselves.
func snapshotsBitEqual(a, b *Snapshot) bool {
	bits := func(r *metrics.Report) [7]uint64 {
		if r == nil {
			return [7]uint64{}
		}
		return [7]uint64{
			math.Float64bits(r.ChiSquare), math.Float64bits(r.Significance),
			math.Float64bits(r.Cost), math.Float64bits(r.RelativeCost),
			math.Float64bits(r.PaxsonX2), math.Float64bits(r.AvgNormDev),
			math.Float64bits(r.Phi),
		}
	}
	if (a.SizeReport == nil) != (b.SizeReport == nil) ||
		(a.IatReport == nil) != (b.IatReport == nil) {
		return false
	}
	if bits(a.SizeReport) != bits(b.SizeReport) || bits(a.IatReport) != bits(b.IatReport) {
		return false
	}
	ac, bc := *a, *b
	ac.SizeReport, ac.IatReport = nil, nil
	bc.SizeReport, bc.IatReport = nil, nil
	return reflect.DeepEqual(&ac, &bc)
}

func TestSnapshotRoundTrip(t *testing.T) {
	cases := map[string]*Snapshot{
		"full": sampleSnapshot(),
		"minimal": {
			Node: "n", Seq: 1, Shards: 1,
		},
		"no-reports": {
			Node: "n2", Seq: 2, Shards: 2, Offered: 10, Processed: 10,
			SizeCounts: []uint64{1, 2, 3},
		},
	}
	for name, want := range cases {
		t.Run(name, func(t *testing.T) {
			payload, err := EncodeSnapshot(want)
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			if len(payload) != cap(payload) {
				t.Errorf("encoded %d bytes into a %d-byte buffer: the precomputed payload length is off",
					len(payload), cap(payload))
			}
			got, err := decodeSnapshot(payload)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if !snapshotsBitEqual(got, want) {
				t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

// TestSnapshotDecodeMalformed drives the decoder through every bounds
// check: truncations at each field boundary, oversized length fields,
// and trailing garbage must all error (never panic or over-allocate).
func TestSnapshotDecodeMalformed(t *testing.T) {
	valid, err := EncodeSnapshot(sampleSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	// Every proper prefix of a valid payload is malformed: the decoder
	// must reject all of them without panicking.
	for cut := 0; cut < len(valid); cut++ {
		if _, err := decodeSnapshot(valid[:cut]); err == nil {
			t.Fatalf("decode accepted truncation at %d of %d", cut, len(valid))
		}
	}
	// Trailing garbage is rejected by the exact-consumption check.
	if _, err := decodeSnapshot(append(append([]byte{}, valid...), 0)); err == nil {
		t.Error("decode accepted trailing byte")
	}

	// A count-array length over maxSnapshotBins must be rejected before
	// any allocation happens. The size-counts length field sits after
	// node + seq + windows + flags + shards + 4 counters.
	countsOff := 2 + len("nsd-test") + 8 + 8 + 8 + 1 + 4 + 4*8
	huge := append([]byte{}, valid...)
	binary.LittleEndian.PutUint16(huge[countsOff:], maxSnapshotBins+1)
	if _, err := decodeSnapshot(huge); err == nil {
		t.Error("decode accepted oversized bin count")
	} else if !errors.Is(err, ErrWire) {
		t.Errorf("oversized bin count error = %v, want ErrWire", err)
	}

	// An encoded top-k count beyond the limit is likewise rejected.
	s := sampleSnapshot()
	s.TopK = make([]nnstat.Entry, maxTopEntries+1)
	if _, err := EncodeSnapshot(s); err == nil {
		t.Error("encode accepted oversized top-k")
	}
	s = sampleSnapshot()
	s.Node = strings.Repeat("x", maxNameLen+1)
	if _, err := EncodeSnapshot(s); err == nil {
		t.Error("encode accepted oversized node name")
	}
}

// TestSnapshotDecodeTopKCountBeforeAlloc pins the order of the decoder's
// top-k checks: a count field is believed only after the bytes behind
// it have been walked. The payload's top-k section is 30 bytes — a
// count of 4096 and one 28-byte entry — where 4096 entries need at
// least 72 KiB; making the entry slice first would cost 128 KiB a call.
// It must fail as ErrWire having allocated next to nothing, and a
// well-formed record must decode into at most six objects.
func TestSnapshotDecodeTopKCountBeforeAlloc(t *testing.T) {
	payload, err := EncodeSnapshot(&Snapshot{Node: "n"})
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint16(payload[len(payload)-2:], maxTopEntries)
	payload = binary.LittleEndian.AppendUint16(payload, 10)
	payload = append(payload, make([]byte, 10+16)...)

	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := decodeSnapshot(payload); !errors.Is(err, ErrWire) {
			t.Fatalf("decode of a 30-byte section claiming %d entries = %v, want ErrWire", maxTopEntries, err)
		}
	}
	runtime.ReadMemStats(&after)
	if perRun := (after.TotalAlloc - before.TotalAlloc) / runs; perRun > 4096 {
		t.Errorf("rejecting the payload allocated %d bytes a call: storage was sized from the count field", perRun)
	}

	valid, err := EncodeSnapshot(sampleSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := decodeSnapshot(valid); err != nil {
			t.Fatal(err)
		}
	}); n > 6 {
		t.Errorf("decoding a full record made %v allocations, want at most 6", n)
	}
}

// TestAgentSnapshotExport: an agent without a snapshot source answers
// a poll with a wire error. Serving a pipeline's windows, and the
// "no snapshot available yet" answer before the first, are pinned by
// FuzzOracleChain's collection hop.
func TestAgentSnapshotExport(t *testing.T) {
	bare := NewAgent("node-b", arts.T3)
	addr, err := bare.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	defer bare.Close()
	if _, err := NewCollector().PollSnapshot(addr.String()); err == nil {
		t.Error("PollSnapshot succeeded against an agent with no source")
	} else if !strings.Contains(err.Error(), "no snapshot source configured") {
		t.Errorf("no-source error = %v", err)
	}
}

type fakeSnapshotSource struct {
	snap *Snapshot
}

func (f *fakeSnapshotSource) LatestSnapshot() (*Snapshot, bool) {
	return f.snap, f.snap != nil
}
