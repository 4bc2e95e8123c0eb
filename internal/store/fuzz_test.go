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
