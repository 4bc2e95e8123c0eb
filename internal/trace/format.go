package trace

import (
	"bufio"
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

// Write serializes the trace to w in NSTR format.
func Write(w io.Writer, t *Trace) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	var hdr [headerLen]byte
	copy(hdr[0:4], traceMagic[:])
	binary.LittleEndian.PutUint16(hdr[4:], FormatVersion)
	binary.LittleEndian.PutUint64(hdr[8:], uint64(t.Start.UnixMicro()))
	binary.LittleEndian.PutUint64(hdr[16:], uint64(t.ClockUS))
	binary.LittleEndian.PutUint64(hdr[24:], uint64(len(t.Packets)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	var rec [recordLen]byte
	for _, p := range t.Packets {
		encodeRecord(&rec, p)
		if _, err := bw.Write(rec[:]); err != nil {
			return err
		}
	}
	return bw.Flush()
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

func decodeRecord(rec *[recordLen]byte) Packet {
	return decodeRecordBytes(rec[:])
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

// Read deserializes a complete NSTR trace from r, verifying the magic,
// version and record count. A stream that ends early returns ErrFormat.
func Read(r io.Reader) (*Trace, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var hdr [headerLen]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: header: %v", ErrFormat, err)
	}
	if [4]byte(hdr[0:4]) != traceMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrFormat, hdr[0:4])
	}
	if v := binary.LittleEndian.Uint16(hdr[4:]); v != FormatVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrFormat, v)
	}
	t := &Trace{
		Start:   time.UnixMicro(int64(binary.LittleEndian.Uint64(hdr[8:]))).UTC(),
		ClockUS: int64(binary.LittleEndian.Uint64(hdr[16:])),
	}
	count := binary.LittleEndian.Uint64(hdr[24:])
	const maxRecords = 1 << 28 // 256M packets ≈ 6 GiB; reject absurd headers
	if count > maxRecords {
		return nil, fmt.Errorf("%w: record count %d exceeds limit", ErrFormat, count)
	}
	// Cap the upfront allocation: the count field is untrusted input, so
	// a forged header must not force gigabytes of capacity before the
	// (length-checked) record reads fail.
	preallocate := count
	if preallocate > 1<<20 {
		preallocate = 1 << 20
	}
	t.Packets = make([]Packet, 0, preallocate)
	var rec [recordLen]byte
	for i := uint64(0); i < count; i++ {
		if _, err := io.ReadFull(br, rec[:]); err != nil {
			return nil, fmt.Errorf("%w: record %d: %v", ErrFormat, i, err)
		}
		t.Packets = append(t.Packets, decodeRecord(&rec))
	}
	return t, nil
}
