package trace

import (
	"fmt"
	"io"
)

// MapReader is the module's one NSTR decoder: it reads a trace whose
// record region sits in memory — a mapped file (OpenMap), a file read
// whole (NewMapReaderBytes), or an in-memory trace's own packets
// (Trace.Replay). The header is validated once at open; after that the
// reader is pure pointer arithmetic — record batches are handed out as
// views straight into the region, with no per-packet copy and no bufio
// layer between the bytes and the decoder.
//
// Aliasing rules: every slice returned by NextRawBatch aliases the
// region and stays valid, immutable, and stable until Close.
// Callers may therefore hold windows from many calls at once, but must
// not touch any view after Close unmaps the pages — see DESIGN.md §3.
//
// A region that is shorter than its header's declared record count
// delivers every complete record it contains and then reports a typed
// ErrFormat; trailing bytes beyond the declared count are ignored.
type MapReader struct {
	records []byte // the record region, header excluded; nil after Close
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
// returns a reader over the records behind it. The reader aliases data
// directly; the caller must keep it immutable for the reader's
// lifetime. Close on a reader constructed this way only severs the
// views — the region's storage belongs to the caller.
func NewMapReaderBytes(data []byte) (*MapReader, error) {
	h, err := parseHeader(data)
	if err != nil {
		return nil, err
	}
	records := data[headerLen:]
	avail := min(uint64(len(records))/recordLen, h.total)
	return &MapReader{records: records, header: h, avail: avail}, nil
}

// Replay returns a reader over the trace's own packets, positioned at
// the start: where the layout identity holds (layout.go) its raw
// windows are views of t.Packets, so do not mutate them during a
// replay; elsewhere the reader holds one encoded copy.
func (t *Trace) Replay() *MapReader {
	records, ok := packetsAsRecords(t.Packets)
	if !ok {
		records = encodeFresh(t.Packets)
	}
	n := uint64(len(t.Packets))
	h := header{start: t.Start, clockUS: t.ClockUS, total: n}
	return &MapReader{records: records, header: h, avail: n}
}

// Rewind repositions the reader at the first record.
func (m *MapReader) Rewind() { m.pos = 0 }

// Close releases the mapping (munmap for OpenMap on Linux) and severs
// the reader: subsequent reads report ErrFormat rather than faulting on
// unmapped pages. Raw views already handed out die with the mapping —
// the caller must not touch them after Close. Closing twice is safe.
func (m *MapReader) Close() error {
	m.records = nil
	m.avail = 0
	release := m.release
	m.release = nil
	if release == nil {
		return nil
	}
	return release()
}

// NextRawBatch returns a view of up to max consecutive records as raw
// bytes, straight out of the region, plus the record count — the
// pipeline.RawBatchSource form. The view is valid until Close — see the
// aliasing rules on MapReader. Complete records precede any error: a
// region truncated below the declared count yields its remaining
// records alongside nil, then ErrFormat on the next call; exhaustion
// yields (nil, 0, io.EOF).
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
	off := m.pos * recordLen
	raw := m.records[off : off+want*recordLen : off+want*recordLen]
	m.pos += want
	return raw, int(want), nil
}

// Next returns the next packet — the pipeline.Source form. After the
// declared record count it returns io.EOF; a truncated region returns
// ErrFormat.
func (m *MapReader) Next() (Packet, error) {
	raw, n, err := m.NextRawBatch(1)
	if n == 0 {
		return Packet{}, err
	}
	return decodeRecordBytes(raw), nil
}

// Span returns the header's record count and the first and last
// records' timestamps, all core.PeriodForSpan needs, in O(1) and
// without moving the stream position. It refuses a truncated region.
func (m *MapReader) Span() (records int, firstUS, lastUS int64, err error) {
	if m.avail < m.total {
		return 0, 0, 0, fmt.Errorf("%w: region truncated (%d of %d records present)", ErrFormat, m.avail, m.total)
	}
	if m.total == 0 {
		return 0, 0, 0, nil
	}
	last := (m.total - 1) * recordLen
	return int(m.total), decodeRecordBytes(m.records).Time, decodeRecordBytes(m.records[last:]).Time, nil
}

// Trace returns the full trace for random-access consumers without
// moving the stream position; a truncated region is refused up front,
// as by Span. Where the layout identity holds (layout.go) Packets *is*
// the record region — read-only if mapped, dead at Close like every raw
// view; elsewhere (big-endian, a misaligned NewMapReaderBytes region) a
// copy.
func (m *MapReader) Trace() (*Trace, error) {
	if _, _, _, err := m.Span(); err != nil {
		return nil, err
	}
	raw := m.records[:m.total*recordLen]
	pkts, ok := recordsAsPackets(raw)
	if !ok {
		pkts = make([]Packet, m.total)
		DecodeRecords(pkts, raw)
	}
	return &Trace{Start: m.start, ClockUS: m.clockUS, Packets: pkts}, nil
}
