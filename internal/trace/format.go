package trace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"

	"netsample/internal/packet"
)

// Binary trace file format ("NSTR"):
//
//	header (32 bytes):
//	  magic   [4]byte  "NSTR"
//	  version uint16   currently 1
//	  _       uint16   reserved, zero
//	  start   int64    Unix µs of timestamp zero
//	  clockUS int64    capture clock granularity in µs
//	  count   uint64   number of records
//	record (24 bytes each, little-endian):
//	  time    int64    µs since trace start
//	  size    uint16   IP total length
//	  proto   uint8
//	  tcpFl   uint8
//	  src     [4]byte
//	  dst     [4]byte
//	  sport   uint16
//	  dport   uint16
//
// The format is deliberately fixed-width so a reader can random-access
// records and a node simulation can bound its buffer usage.

var traceMagic = [4]byte{'N', 'S', 'T', 'R'}

// Format constants. HeaderLen and RecordLen are exported so zero-copy
// consumers (the pipeline's raw-batch kernels, the mmap reader's
// callers) can slice record windows out of an NSTR byte region without
// round-tripping through the decoder.
const (
	FormatVersion = 1
	HeaderLen     = 32
	RecordLen     = 24

	headerLen = HeaderLen
	recordLen = RecordLen
)

// ErrFormat reports a malformed trace stream.
var ErrFormat = errors.New("trace: malformed trace stream")

// Write serializes the trace to w in NSTR format: the header, then the
// records in one Write — the packets' own memory, where layout.go allows.
func Write(w io.Writer, t *Trace) error {
	var hdr [headerLen]byte
	copy(hdr[0:4], traceMagic[:])
	binary.LittleEndian.PutUint16(hdr[4:], FormatVersion)
	binary.LittleEndian.PutUint64(hdr[8:], uint64(t.Start.UnixMicro()))
	binary.LittleEndian.PutUint64(hdr[16:], uint64(t.ClockUS))
	binary.LittleEndian.PutUint64(hdr[24:], uint64(len(t.Packets)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	raw, ok := packetsAsRecords(t.Packets)
	if !ok {
		raw = encodeFresh(t.Packets)
	}
	_, err := w.Write(raw)
	return err
}

func encodeRecord(rec *[recordLen]byte, p Packet) {
	binary.LittleEndian.PutUint64(rec[0:], uint64(p.Time))
	binary.LittleEndian.PutUint16(rec[8:], p.Size)
	rec[10] = uint8(p.Protocol)
	rec[11] = p.TCPFlags
	copy(rec[12:16], p.Src[:])
	copy(rec[16:20], p.Dst[:])
	binary.LittleEndian.PutUint16(rec[20:], p.SrcPort)
	binary.LittleEndian.PutUint16(rec[22:], p.DstPort)
}

// decodeRecordBytes decodes one record from a slice of at least
// RecordLen bytes. The rec[23] touch up front collapses the per-field
// bounds checks into one, and the record is consumed as three 8-byte
// little-endian words — each field is a shift-and-truncate off a
// register instead of its own memory load.
//
//nslint:hotpath
func decodeRecordBytes(rec []byte) Packet {
	_ = rec[recordLen-1]
	w0 := binary.LittleEndian.Uint64(rec[0:8])
	w1 := binary.LittleEndian.Uint64(rec[8:16])
	w2 := binary.LittleEndian.Uint64(rec[16:24])
	return Packet{
		Time:     int64(w0),
		Size:     uint16(w1),
		Protocol: packet.Protocol(w1 >> 16),
		TCPFlags: uint8(w1 >> 24),
		Src:      packet.Addr{byte(w1 >> 32), byte(w1 >> 40), byte(w1 >> 48), byte(w1 >> 56)},
		Dst:      packet.Addr{byte(w2), byte(w2 >> 8), byte(w2 >> 16), byte(w2 >> 24)},
		SrcPort:  uint16(w2 >> 32),
		DstPort:  uint16(w2 >> 48),
	}
}

// DecodeRecords decodes consecutive NSTR records from raw into dst and
// returns how many it decoded: min(len(dst), len(raw)/RecordLen).
// Trailing bytes shorter than a full record are ignored; raw is read
// but never retained, so callers may pass views into a memory-mapped
// region. This is the batch kernel under StreamReader.NextBatch and
// MapReader: one pass, no buffering layer, bounds checks hoisted per
// record rather than per field.
//
//nslint:hotpath
func DecodeRecords(dst []Packet, raw []byte) int {
	n := len(raw) / recordLen
	if n > len(dst) {
		n = len(dst)
	}
	for i := 0; i < n; i++ {
		dst[i] = decodeRecordBytes(raw[i*recordLen : i*recordLen+recordLen])
	}
	return n
}

// EncodeRecords is DecodeRecords' inverse: it encodes pkts as
// consecutive NSTR records into dst and returns how many it encoded,
// min(len(pkts), len(dst)/RecordLen).
//
//nslint:hotpath
func EncodeRecords(dst []byte, pkts []Packet) int {
	n := len(dst) / recordLen
	if n > len(pkts) {
		n = len(pkts)
	}
	for i := 0; i < n; i++ {
		encodeRecord((*[recordLen]byte)(dst[i*recordLen:]), pkts[i])
	}
	return n
}

// encodeFresh is the portable packetsAsRecords: NSTR record bytes in a
// new buffer per call, because a caller may hold many at once.
func encodeFresh(pkts []Packet) []byte {
	//nslint:allow hotalloc big-endian builds only: one window per batch, as the pipeline's edge adapter pays
	raw := make([]byte, len(pkts)*recordLen)
	EncodeRecords(raw, pkts)
	return raw
}

// Read deserializes a complete NSTR trace from r, verifying the magic,
// version and record count. A stream that ends early returns ErrFormat.
func Read(r io.Reader) (*Trace, error) {
	s, err := NewStreamReader(r)
	if err != nil {
		return nil, err
	}
	const maxRecords = 1 << 28 // 256M packets ≈ 6 GiB; reject absurd headers
	if s.total > maxRecords {
		return nil, fmt.Errorf("%w: record count %d exceeds limit", ErrFormat, s.total)
	}
	// The count is untrusted: the slab grows a capped chunk at a time, so a
	// forged header cannot force gigabytes before the reads fail. A chunk
	// lands in the packets' own bytes, or comes through NextBatch's decode.
	t := &Trace{Start: s.start, ClockUS: s.clockUS}
	for have := 0; uint64(have) < s.total; have = len(t.Packets) {
		n := int(min(s.total-uint64(have), 1<<20))
		t.Packets = slices.Grow(t.Packets, n)[:have+n]
		dst := t.Packets[have:]
		if raw, ok := packetsAsRecords(dst); !ok {
			if _, err := s.NextBatch(dst); err != nil {
				return nil, err
			}
		} else if got, err := io.ReadFull(s.br, raw); err != nil {
			return nil, fmt.Errorf("%w: record %d: %v", ErrFormat, have+got/recordLen, err)
		}
	}
	return t, nil
}
