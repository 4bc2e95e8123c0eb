package collect

import (
	"bytes"
	"testing"
)

// FuzzDecodeSnapshot: arbitrary payloads must never panic the snapshot
// decoder, and anything that decodes must survive an encode→decode
// round trip bit-identically (the wire form is canonical).
func FuzzDecodeSnapshot(f *testing.F) {
	valid, err := EncodeSnapshot(sampleSnapshot())
	if err != nil {
		f.Fatal(err)
	}
	minimal, err := EncodeSnapshot(&Snapshot{Node: "n"})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(minimal)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x00})
	// A length field claiming maxSnapshotBins exactly, with no data.
	f.Add([]byte{0x01, 0x00, 'n', 0x00, 0x04})
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := decodeSnapshot(data)
		if err != nil {
			return
		}
		re, err := EncodeSnapshot(s)
		if err != nil {
			t.Fatalf("decoded snapshot failed to re-encode: %v", err)
		}
		s2, err := decodeSnapshot(re)
		if err != nil {
			t.Fatalf("re-encoded snapshot failed to decode: %v", err)
		}
		if !snapshotsBitEqual(s, s2) {
			t.Fatalf("snapshot not canonical:\n first %+v\nsecond %+v", s, s2)
		}
	})
}

// FuzzReadFrame: arbitrary streams must never panic the frame reader,
// and anything it accepts must round-trip through writeFrame with the
// checksum intact. The corpus seeds every header stage: valid frames,
// old-version headers, forged jumbo lengths, and flipped checksum
// bytes. Type 1 is a retired poll: well-formed on the wire, and
// exactly what an agent must now reject with a typed error.
func FuzzReadFrame(f *testing.F) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, 1, []byte("payload")); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(append([]byte(nil), valid...))
	// v1 header (8 bytes) and a truncated v2 prefix.
	f.Add([]byte{0x53, 0x4e, 1, 1, 0, 0, 0, 0})
	f.Add(valid[:4])
	// Forged jumbo payload lengths, at and past the limit.
	f.Add([]byte{0x53, 0x4e, 2, 1, 0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0})
	f.Add([]byte{0x53, 0x4e, 2, 1, 0x00, 0x00, 0x00, 0x04, 0, 0, 0, 0})
	// Flipped checksum and flipped type byte.
	crcFlip := append([]byte(nil), valid...)
	crcFlip[8] ^= 0x10
	f.Add(crcFlip)
	typeFlip := append([]byte(nil), valid...)
	typeFlip[3] ^= 0x02
	f.Add(typeFlip)
	f.Fuzz(func(t *testing.T, data []byte) {
		msgType, payload, err := readFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := writeFrame(&out, msgType, payload); err != nil {
			t.Fatalf("accepted frame failed to re-encode: %v", err)
		}
		typ2, payload2, err := readFrame(&out)
		if err != nil {
			t.Fatalf("re-encoded frame failed to decode: %v", err)
		}
		if typ2 != msgType || !bytes.Equal(payload, payload2) {
			t.Fatal("frame round trip not canonical")
		}
	})
}
