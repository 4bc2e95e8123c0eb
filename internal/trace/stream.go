package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"time"
)

// StreamReader reads an NSTR trace one record at a time, so node
// simulations can replay traces far larger than memory. It validates
// the header eagerly and the record count incrementally.
type StreamReader struct {
	br      *bufio.Reader
	start   time.Time
	clockUS int64
	total   uint64
	read    uint64
	scratch []byte // batch×RecordLen staging for NextBatch bulk reads
}

// NewStreamReader validates the stream header and returns a reader
// positioned at the first record.
func NewStreamReader(r io.Reader) (*StreamReader, error) {
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
	return &StreamReader{
		br:      br,
		start:   time.UnixMicro(int64(binary.LittleEndian.Uint64(hdr[8:]))).UTC(),
		clockUS: int64(binary.LittleEndian.Uint64(hdr[16:])),
		total:   binary.LittleEndian.Uint64(hdr[24:]),
	}, nil
}

// Next returns the next packet. After the declared record count it
// returns io.EOF; a stream that ends early returns ErrFormat.
func (s *StreamReader) Next() (Packet, error) {
	if s.read >= s.total {
		return Packet{}, io.EOF
	}
	var rec [recordLen]byte
	if _, err := io.ReadFull(s.br, rec[:]); err != nil {
		//nslint:allow hotalloc error path: a truncated stream wraps once and ends the run
		return Packet{}, fmt.Errorf("%w: record %d: %v", ErrFormat, s.read, err)
	}
	s.read++
	return decodeRecordBytes(rec[:]), nil
}

// NextBatch fills dst with the next records of the stream, returning
// how many it decoded — the amortized batch form of Next. Decoded
// packets precede any error: a short stream returns the packets read so
// far alongside ErrFormat, and exhaustion returns (0, io.EOF).
//
// The whole batch is fetched with a single bulk io.ReadFull into a
// reusable batch×RecordLen scratch buffer and decoded in one
// DecodeRecords pass; a short read still surfaces every complete record
// it delivered before the ErrFormat.
//
//nslint:hotpath
func (s *StreamReader) NextBatch(dst []Packet) (int, error) {
	if s.read >= s.total {
		return 0, io.EOF
	}
	want := uint64(len(dst))
	if left := s.total - s.read; left < want {
		want = left
	}
	if want == 0 {
		return 0, nil
	}
	need := int(want) * recordLen
	if cap(s.scratch) < need {
		//nslint:allow hotalloc scratch grows to the largest batch once, then is reused
		s.scratch = make([]byte, need)
	}
	got, err := io.ReadFull(s.br, s.scratch[:need])
	n := DecodeRecords(dst, s.scratch[:got])
	s.read += uint64(n)
	if err != nil {
		//nslint:allow hotalloc error path: a truncated stream wraps once and ends the run
		return n, fmt.Errorf("%w: record %d: %v", ErrFormat, s.read, err)
	}
	return n, nil
}

// Filter returns a new trace containing the packets for which keep
// returns true. Metadata is preserved; the packet slice is fresh.
func (t *Trace) Filter(keep func(Packet) bool) *Trace {
	out := &Trace{Start: t.Start, ClockUS: t.ClockUS}
	for _, p := range t.Packets {
		if keep(p) {
			out.Packets = append(out.Packets, p)
		}
	}
	return out
}
