package trace

import (
	"fmt"
	"io"
)

// MapReader reads an NSTR trace from a byte region mapped (or loaded)
// into memory. The header is validated once at open; after that the
// reader is pure pointer arithmetic — record batches are handed out as
// views straight into the region, with no per-packet copy and no bufio
// layer between the file and the decoder.
//
// Aliasing rules: every slice returned by NextRawBatch aliases the
// mapped region and stays valid, immutable, and stable until Close.
// Callers may therefore hold windows from many calls at once, but must
// not touch any view after Close unmaps the pages — see DESIGN.md §3.
//
// A region that is shorter than its header's declared record count
// delivers every complete record it contains and then reports a typed
// ErrFormat; trailing bytes beyond the declared count are ignored.
type MapReader struct {
	data []byte // full region, header included; nil after Close
	header
	avail   uint64 // complete records actually present in the region
	pos     uint64 // index of the next record to hand out
	release func() error
}

// OpenMap memory-maps the NSTR trace file at path (read-only; a whole-
// file read on platforms without mmap) and validates its header. The
// caller owns the returned reader and must Close it to unmap.
func OpenMap(path string) (*MapReader, error) {
	mapping, err := OpenMapping(path)
	if err != nil {
		return nil, err
	}
	m, err := NewMapReaderBytes(mapping.Data())
	if err != nil {
		// The header error is the one worth reporting; an unmap failure
		// on this abandoned mapping has no caller-visible effect.
		//nslint:allow errdrop header validation failed; the munmap error would mask the real cause
		mapping.Close()
		return nil, err
	}
	m.release = mapping.Close
	return m, nil
}

// NewMapReaderBytes validates the NSTR header at the front of data and
// returns a reader over the region. The reader aliases data directly;
// the caller must keep it immutable for the reader's lifetime. Close on
// a reader constructed this way only severs the views — the region's
// storage belongs to the caller.
func NewMapReaderBytes(data []byte) (*MapReader, error) {
	h, err := parseHeader(data)
	if err != nil {
		return nil, err
	}
	m := &MapReader{data: data, header: h}
	m.avail = uint64(len(data)-headerLen) / recordLen
	if m.avail > m.total {
		m.avail = m.total
	}
	return m, nil
}

// Rewind repositions the reader at the first record.
func (m *MapReader) Rewind() { m.pos = 0 }

// Close releases the mapping (munmap for OpenMap on Linux) and severs
// the reader: subsequent reads report ErrFormat rather than faulting on
// unmapped pages. Raw views already handed out die with the mapping —
// the caller must not touch them after Close. Closing twice is safe.
func (m *MapReader) Close() error {
	m.data = nil
	m.avail = 0
	release := m.release
	m.release = nil
	if release == nil {
		return nil
	}
	return release()
}

// NextRawBatch returns a view of up to max consecutive records as raw
// bytes, straight out of the mapped region, plus the record count. The
// view is valid until Close — see the aliasing rules on MapReader.
// Complete records precede any error: a region truncated below the
// declared count yields its remaining records alongside nil, then
// ErrFormat on the next call; exhaustion yields (nil, 0, io.EOF).
//
//nslint:hotpath
func (m *MapReader) NextRawBatch(max int) ([]byte, int, error) {
	if m.pos >= m.total {
		return nil, 0, io.EOF
	}
	want := m.total - m.pos
	if max <= 0 {
		return nil, 0, nil
	}
	if uint64(max) < want {
		want = uint64(max)
	}
	var have uint64
	if m.pos < m.avail {
		have = m.avail - m.pos
	}
	if have < want {
		if have == 0 {
			//nslint:allow hotalloc error path: a truncated region errors once and ends the run
			return nil, 0, fmt.Errorf("%w: record %d: region truncated (%d of %d records present)",
				ErrFormat, m.pos, m.avail, m.total)
		}
		want = have
	}
	off := headerLen + m.pos*recordLen
	raw := m.data[off : off+want*recordLen : off+want*recordLen]
	m.pos += want
	return raw, int(want), nil
}

// NextBatch fills dst with the next records, decoded from the mapped
// region in one DecodeRecords pass. Decoded packets precede any error,
// truncation is ErrFormat, exhaustion is (0, io.EOF).
//
//nslint:hotpath
func (m *MapReader) NextBatch(dst []Packet) (int, error) {
	raw, n, err := m.NextRawBatch(len(dst))
	DecodeRecords(dst[:n], raw)
	return n, err
}

// Next returns the next packet — the pipeline.Source form. After the
// declared record count it returns io.EOF; a truncated region returns
// ErrFormat.
func (m *MapReader) Next() (Packet, error) {
	var one [1]Packet
	n, err := m.NextBatch(one[:])
	if n == 0 {
		return Packet{}, err
	}
	return one[0], nil
}

// Trace returns the full trace for random-access consumers (nsd's timer
// period) without moving the stream position; a truncated region is
// refused up front. Where the layout identity holds (layout.go) Packets
// *is* the record region — read-only, dead at Close like every raw view;
// elsewhere (big-endian, a misaligned NewMapReaderBytes region) a copy.
func (m *MapReader) Trace() (*Trace, error) {
	if m.avail < m.total {
		return nil, fmt.Errorf("%w: region truncated (%d of %d records present)", ErrFormat, m.avail, m.total)
	}
	raw := m.data[headerLen : headerLen+m.total*recordLen]
	pkts, ok := recordsAsPackets(raw)
	if !ok {
		pkts = make([]Packet, m.total)
		DecodeRecords(pkts, raw)
	}
	return &Trace{Start: m.start, ClockUS: m.clockUS, Packets: pkts}, nil
}
