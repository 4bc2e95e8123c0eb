package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
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

// anchorImage lays out the anchor file writeAnchor writes for a
// (TestAnchorImageIsWhatWriteAnchorWrites holds the two together).
func anchorImage(a anchorInfo) []byte {
	b := make([]byte, anchorLen)
	copy(b[0:4], anchorMagic[:])
	binary.LittleEndian.PutUint16(b[4:6], segVersion)
	binary.LittleEndian.PutUint64(b[8:16], a.seq)
	copy(b[16:48], a.root[:])
	binary.LittleEndian.PutUint32(b[48:], crc32.ChecksumIEEE(b[:48]))
	return b
}

// anchorSeeds are FuzzAnchorDecode's seed images, by corpus file name:
// a valid anchor and one image per check decodeAnchor makes.
func anchorSeeds() map[string][]byte {
	root := sha256.Sum256([]byte("anchor"))
	valid := anchorImage(anchorInfo{seq: fuzzSeq, root: root})
	seeds := map[string][]byte{
		"valid_anchor":     valid,
		"truncated_anchor": valid[:anchorLen-1],
		"trailing_byte":    append(bytes.Clone(valid), 0),
		"empty":            {},
	}
	for name, off := range map[string]int{"bad_magic": 0, "bad_version": 4, "root_bit_flip": 20, "crc_bit_flip": 50} {
		b := bytes.Clone(valid)
		b[off] ^= 0x40
		seeds[name] = b
	}
	return seeds
}

// TestAnchorImageIsWhatWriteAnchorWrites keeps the fuzz seeds honest:
// anchorImage must be byte for byte the file the writer installs, and
// decodeAnchor must read it back.
func TestAnchorImageIsWhatWriteAnchorWrites(t *testing.T) {
	dir := t.TempDir()
	a := anchorInfo{seq: 41, root: sha256.Sum256([]byte("cut"))}
	if err := writeAnchor(dir, a); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, anchorName))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, anchorImage(a)) {
		t.Fatalf("writeAnchor wrote %x, anchorImage lays out %x", got, anchorImage(a))
	}
	if back, ok, err := readAnchor(dir); err != nil || !ok || back != a {
		t.Fatalf("readAnchor = %+v, %v, %v; want %+v", back, ok, err, a)
	}
}

// FuzzAnchorDecode: arbitrary anchor files must never panic the
// decoder, every refusal must be a CorruptionError, and an accepted
// image must be exactly the anchor it decodes to — only the reserved
// bytes, which the checksum covers but nothing reads, may differ from
// what writeAnchor would write for it.
func FuzzAnchorDecode(f *testing.F) {
	for _, b := range anchorSeeds() {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := decodeAnchor(data)
		if err != nil {
			var ce *CorruptionError
			if !errors.As(err, &ce) || ce.Segment != anchorName {
				t.Fatalf("refusal is not a CorruptionError naming the anchor: %v", err)
			}
			return
		}
		want := anchorImage(a)
		copy(want[6:8], data[6:8])
		binary.LittleEndian.PutUint32(want[48:], crc32.ChecksumIEEE(want[:48]))
		if !bytes.Equal(data, want) {
			t.Fatalf("accepted %x, which is not the anchor %+v it decodes to", data, a)
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
// mutation on a sealed segment and on the tail.
func chainSeeds() map[string]chainMutation {
	return map[string]chainMutation{
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
