package store

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// fuzzSegImage builds a small segment image for seeding: 3 records,
// optionally sealed, under sequence number fuzzSeq.
const fuzzSeq = 7

func fuzzSegImage(sealed bool) []byte {
	var prev [32]byte
	buf := appendHeader(nil, fuzzSeq, prev)
	var leaves [][32]byte
	var lastUS int64
	for i := 0; i < 3; i++ {
		start := len(buf)
		lastUS = int64(1000 * (i + 1))
		buf = appendFrame(buf, KindSnapshot, lastUS, []byte(fmt.Sprintf("payload-%d", i)))
		leaves = append(leaves, sha256.Sum256(buf[start:]))
	}
	if sealed {
		root := chainRoot(prev, merkleRoot(leaves), fuzzSeq)
		seal := sealInfo{records: 3, firstUS: 1000, lastUS: lastUS, root: root}
		buf = appendFrame(buf, kindSeal, lastUS, appendSealPayload(nil, seal))
	}
	return buf
}

// FuzzSegmentDecode: arbitrary segment images must never panic the
// scanner, and the scanner's torn-tail contract must hold — a clean
// scan consumes the whole file, and the valid prefix it reports always
// re-scans clean with the same records. That prefix property IS the
// crash-recovery rule (Open truncates at validLen), so the fuzzer is
// probing recovery against adversarial file states, not just honest
// tears.
func FuzzSegmentDecode(f *testing.F) {
	sealed := fuzzSegImage(true)
	unsealed := fuzzSegImage(false)
	f.Add(sealed)
	f.Add(unsealed)
	f.Add(sealed[:len(sealed)-5])           // torn seal footer
	f.Add(unsealed[:len(unsealed)-3])       // torn record
	f.Add(append(fuzzSegImage(true), 0xAA)) // trailing byte after seal
	f.Add([]byte("NSSG"))                   // torn creation
	f.Add([]byte{})
	bitflip := fuzzSegImage(true)
	bitflip[headerLen+20] ^= 0x40
	f.Add(bitflip)
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _, _ = parseHeader("fuzz", data)
		st, err := scanSegment("fuzz", fuzzSeq, data, true, func(rec Record) error {
			if rec.Kind == kindSeal {
				t.Fatal("scanner surfaced the seal frame as a data record")
			}
			if len(rec.Payload) > 0 {
				_ = rec.Payload[len(rec.Payload)-1]
			}
			return nil
		})
		if err != nil {
			t.Fatalf("scan returned a non-callback error: %v", err)
		}
		if st.validLen > int64(len(data)) {
			t.Fatalf("validLen %d exceeds file size %d", st.validLen, len(data))
		}
		if uint64(len(st.leaves)) != st.records {
			t.Fatalf("%d leaves for %d records", len(st.leaves), st.records)
		}
		if st.torn == nil {
			if st.validLen != int64(len(data)) {
				t.Fatalf("clean scan stopped at %d of %d bytes", st.validLen, len(data))
			}
			return
		}
		if st.torn.Offset < 0 || st.torn.Offset > int64(len(data)) {
			t.Fatalf("tear offset %d outside file of %d bytes", st.torn.Offset, len(data))
		}
		if st.validLen < headerLen {
			return // header itself torn; no prefix to check
		}
		// The recovery contract: the reported valid prefix re-scans
		// clean and holds exactly the same records.
		st2, err := scanSegment("fuzz", fuzzSeq, data[:st.validLen], true, nil)
		if err != nil {
			t.Fatalf("prefix re-scan error: %v", err)
		}
		if st2.torn != nil {
			t.Fatalf("valid prefix re-scan torn: %v", st2.torn)
		}
		if st2.records != st.records || st2.sealed != st.sealed {
			t.Fatalf("prefix re-scan diverged: %d/%v vs %d/%v",
				st2.records, st2.sealed, st.records, st.sealed)
		}
	})
}

// chainMutation is one FuzzStoreChain input: op picks the mutation
// (drop, swap in a foreign segment, truncate at off, flip bit of the
// byte at off) and seg the segment it hits; both wrap around.
type chainMutation struct {
	op, seg uint8
	off     uint16
	bit     uint8
}

// chainSeeds are FuzzStoreChain's seed inputs by corpus file name: each
// mutation on a sealed segment and on the tail, and the first segment
// dropped, which a chain walk starting at whatever segment comes first
// would replay from record 4.
func chainSeeds() map[string]chainMutation {
	return map[string]chainMutation{
		"drop_first":         {0, 0, 0, 0},
		"drop_middle":        {0, 1, 0, 0},
		"drop_tail":          {0, 3, 0, 0},
		"swap_first":         {1, 0, 0, 0},
		"swap_tail":          {1, 3, 0, 0},
		"truncate_sealed":    {2, 1, 150, 0},
		"truncate_tail":      {2, 3, 94, 0},
		"flip_sealed_record": {3, 0, 90, 2},
		"flip_seal":          {3, 2, 230, 5},
		"flip_tail_record":   {3, 3, 80, 0},
	}
}

// FuzzStoreChain mutates a 4-segment store — three sealed segments and
// a 2-record tail — once, and holds the chain's readers to one rule:
// Open refuses or leaves every sealed segment byte-identical (and a
// refusal changes no file); OpenReader+Replay errors or replays an
// in-order prefix of the appended records; and when Verify passes,
// Replay returns every appended record the mutation left on disk.
func FuzzStoreChain(f *testing.F) {
	const n = 14
	opts := Options{SegmentRecords: 4}
	ours, foreign := f.TempDir(), f.TempDir()
	fillStore(f, ours, n, opts)
	fillStore(f, foreign, n, Options{SegmentRecords: 3}) // same records, other roots
	segs, other := dirImage(f, ours), dirImage(f, foreign)
	if len(segs) != 4 {
		f.Fatalf("store holds %d segments, want 4", len(segs))
	}
	for _, m := range chainSeeds() {
		f.Add(m.op, m.seg, m.off, m.bit)
	}
	f.Fuzz(func(t *testing.T, op, seg uint8, off uint16, bit uint8) {
		dir := t.TempDir()
		hit := segName(uint64(seg%4) + 1)
		for name, data := range segs {
			if name == hit {
				switch op % 4 {
				case 0:
					continue
				case 1:
					data = other[name]
				case 2:
					data = data[:int(off)%(len(data)+1)]
				case 3:
					data = bytes.Clone(data)
					data[int(off)%len(data)] ^= 1 << (bit % 8)
				}
			}
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		got, rerr := replayAll(dir)
		if rerr == nil {
			for i, p := range got {
				if i >= n || !bytes.Equal(p, testPayload(i)) {
					t.Fatalf("replayed record %d = %q, not the appended one", i, p)
				}
			}
		}
		if Verify(dir) == nil {
			want := n
			if hit == segName(4) && (op%4 == 0 || op%4 == 2) {
				want = 12 // the mutation cut the tail's records
			}
			if rerr != nil || len(got) < want {
				t.Fatalf("Verify passed, but Replay returned %d records (%v), want %d", len(got), rerr, want)
			}
		}
		before := dirImage(t, dir)
		oerr := openClose(dir, opts)
		after := dirImage(t, dir)
		for name, data := range before {
			if _, sealed := footer(data); (sealed || oerr != nil) && !bytes.Equal(after[name], data) {
				t.Fatalf("Open (%v) rewrote %s", oerr, name)
			}
		}
	})
}
