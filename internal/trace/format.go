package trace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"

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
// region. This is the batch kernel under MapReader.Trace where the
// layout identity (layout.go) fails: one pass, no buffering layer,
// bounds checks hoisted per record rather than per field.
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

// encodeFresh is the portable packetsAsRecords: the packets' NSTR
// records in a new buffer.
func encodeFresh(pkts []Packet) []byte {
	raw := make([]byte, len(pkts)*recordLen)
	EncodeRecords(raw, pkts)
	return raw
}

// header is a validated NSTR header.
type header struct {
	start   time.Time
	clockUS int64
	total   uint64 // record count declared, not yet checked against the data
}

// parseHeader validates the NSTR header at the front of b: its length,
// magic and version.
func parseHeader(b []byte) (header, error) {
	if len(b) < headerLen {
		return header{}, fmt.Errorf("%w: header: %d bytes, need %d", ErrFormat, len(b), headerLen)
	}
	if [4]byte(b[0:4]) != traceMagic {
		return header{}, fmt.Errorf("%w: bad magic %q", ErrFormat, b[0:4])
	}
	if v := binary.LittleEndian.Uint16(b[4:]); v != FormatVersion {
		return header{}, fmt.Errorf("%w: unsupported version %d", ErrFormat, v)
	}
	return header{
		start:   time.UnixMicro(int64(binary.LittleEndian.Uint64(b[8:]))).UTC(),
		clockUS: int64(binary.LittleEndian.Uint64(b[16:])),
		total:   binary.LittleEndian.Uint64(b[24:]),
	}, nil
}
