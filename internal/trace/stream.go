package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
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

// Start returns the trace's wall-clock start time.
func (s *StreamReader) Start() time.Time { return s.start }

// ClockUS returns the capture clock granularity.
func (s *StreamReader) ClockUS() int64 { return s.clockUS }

// Total returns the record count declared in the header.
func (s *StreamReader) Total() uint64 { return s.total }

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

// StreamWriter writes an NSTR trace incrementally. Because the format's
// header carries the record count, the writer buffers only the header
// position: it must write to an io.WriteSeeker so the count can be
// patched in Close.
type StreamWriter struct {
	ws      io.WriteSeeker
	bw      *bufio.Writer
	count   uint64
	started bool
}

// ErrNotStarted reports Close before Start.
var ErrNotStarted = errors.New("trace: stream writer not started")

// NewStreamWriter starts an NSTR stream with the given metadata.
func NewStreamWriter(ws io.WriteSeeker, start time.Time, clockUS int64) (*StreamWriter, error) {
	w := &StreamWriter{ws: ws, bw: bufio.NewWriterSize(ws, 1<<16), started: true}
	var hdr [headerLen]byte
	copy(hdr[0:4], traceMagic[:])
	binary.LittleEndian.PutUint16(hdr[4:], FormatVersion)
	binary.LittleEndian.PutUint64(hdr[8:], uint64(start.UnixMicro()))
	binary.LittleEndian.PutUint64(hdr[16:], uint64(clockUS))
	// Count is patched in Close.
	if _, err := w.bw.Write(hdr[:]); err != nil {
		return nil, err
	}
	return w, nil
}

// Write appends one packet record.
func (w *StreamWriter) Write(p Packet) error {
	if !w.started {
		return ErrNotStarted
	}
	var rec [recordLen]byte
	encodeRecord(&rec, p)
	if _, err := w.bw.Write(rec[:]); err != nil {
		return err
	}
	w.count++
	return nil
}

// Close flushes the records and patches the header's record count.
func (w *StreamWriter) Close() error {
	if !w.started {
		return ErrNotStarted
	}
	w.started = false
	if err := w.bw.Flush(); err != nil {
		return err
	}
	if _, err := w.ws.Seek(24, io.SeekStart); err != nil {
		return err
	}
	var cnt [8]byte
	binary.LittleEndian.PutUint64(cnt[:], w.count)
	if _, err := w.ws.Write(cnt[:]); err != nil {
		return err
	}
	_, err := w.ws.Seek(0, io.SeekEnd)
	return err
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

// Merge interleaves two time-ordered traces into one time-ordered trace.
// Ties keep a's packet first. Metadata is taken from a.
func Merge(a, b *Trace) *Trace {
	out := &Trace{Start: a.Start, ClockUS: a.ClockUS,
		Packets: make([]Packet, 0, len(a.Packets)+len(b.Packets))}
	i, j := 0, 0
	for i < len(a.Packets) && j < len(b.Packets) {
		if a.Packets[i].Time <= b.Packets[j].Time {
			out.Packets = append(out.Packets, a.Packets[i])
			i++
		} else {
			out.Packets = append(out.Packets, b.Packets[j])
			j++
		}
	}
	out.Packets = append(out.Packets, a.Packets[i:]...)
	out.Packets = append(out.Packets, b.Packets[j:]...)
	return out
}
