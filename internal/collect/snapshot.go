package collect

import (
	"encoding/binary"
	"fmt"
	"slices"
	"strings"

	"netsample/internal/flows"
	"netsample/internal/metrics"
	"netsample/internal/nnstat"
)

// Snapshot is the wire form of a pipeline window snapshot, the one
// thing the collection plane carries. A node running the
// characterization pipeline exposes its latest window through an Agent
// (via the SnapshotSource hook), and the NOC pulls it with
// Collector.PollSnapshot.
//
// Payload layout (after the frame header; integers little-endian):
//
//	node (uint16 len + bytes), seq uint64,
//	windowStartUS int64, windowEndUS int64,
//	flags uint8 (bit0 final, bit1 size report present, bit2 iat
//	report present), shards uint32,
//	offered/processed/selected/dropped uint64,
//	sizeCounts (uint16 count + uint64 each),
//	iatCounts (uint16 count + uint64 each),
//	[size report, 56 bytes] [iat report, 56 bytes],
//	flows/packets/bytes/singletons/activeFlows uint64,
//	topk (uint16 count, each: uint16 keyLen + bytes,
//	      count uint64, maxError uint64).
//
// Reports travel as raw float64 bit patterns (metrics.AppendReport), so
// a snapshot round trip is bit-exact — the property the deterministic
// single-shard equivalence test pins end-to-end through cmd/nsd.
type Snapshot struct {
	Node          string
	Seq           uint64
	WindowStartUS int64
	WindowEndUS   int64
	Final         bool
	Shards        uint32

	Offered   uint64
	Processed uint64
	Selected  uint64
	Dropped   uint64

	SizeCounts []uint64
	IatCounts  []uint64
	SizeReport *metrics.Report
	IatReport  *metrics.Report

	FlowCounts  flows.Counts
	ActiveFlows uint64
	TopK        []nnstat.Entry
}

// Snapshot payload bounds: a corrupt length field must not drive
// allocation past what a genuine snapshot could need.
const (
	maxSnapshotBins = 1024
	maxTopEntries   = 4096
)

// Snapshot flag bits.
const (
	snapFlagFinal      = 1 << 0
	snapFlagSizeReport = 1 << 1
	snapFlagIatReport  = 1 << 2
)

// SnapshotSource supplies an Agent's live snapshot view; a nil source
// means the node does not run a pipeline and snapshot queries fail with
// a wire error, not a crash.
type SnapshotSource interface {
	// LatestSnapshot returns the most recent window snapshot, or
	// ok=false when no window has completed yet.
	LatestSnapshot() (*Snapshot, bool)
}

// EncodeSnapshot serializes a snapshot to its canonical wire payload —
// byte-for-byte the payload a TypeSnapshot frame carries. Exported for
// consumers that persist snapshots outside a live wire exchange
// (internal/store records exactly these bytes, which is what makes a
// replayed store bit-identical to the live export).
func EncodeSnapshot(s *Snapshot) ([]byte, error) { return AppendSnapshot(nil, s) }

// DecodeSnapshot parses a canonical snapshot payload produced by
// EncodeSnapshot (or received in a TypeSnapshot frame), enforcing every
// length bound.
func DecodeSnapshot(payload []byte) (*Snapshot, error) { return decodeSnapshot(payload) }

// AppendSnapshot appends s's canonical wire payload to buf and returns
// the extended slice — EncodeSnapshot for a caller that keeps a scratch
// buffer across snapshots. On error nothing is appended.
func AppendSnapshot(buf []byte, s *Snapshot) ([]byte, error) {
	if len(s.Node) > maxNameLen {
		return buf, fmt.Errorf("%w: node name too long", ErrWire)
	}
	if len(s.SizeCounts) > maxSnapshotBins || len(s.IatCounts) > maxSnapshotBins {
		return buf, fmt.Errorf("%w: too many histogram bins", ErrWire)
	}
	if len(s.TopK) > maxTopEntries {
		return buf, fmt.Errorf("%w: too many top-k entries", ErrWire)
	}
	// The exact payload length, summed field by field in layout order, so
	// the buffer grows at most once instead of as it fills.
	size := 2 + len(s.Node) + 3*8 + 1 + 4 + 4*8 +
		2 + 8*len(s.SizeCounts) + 2 + 8*len(s.IatCounts) +
		5*8 + 2
	if s.SizeReport != nil {
		size += metrics.ReportWireSize
	}
	if s.IatReport != nil {
		size += metrics.ReportWireSize
	}
	for _, e := range s.TopK {
		if len(e.Key) > maxNameLen {
			return buf, fmt.Errorf("%w: top-k key too long", ErrWire)
		}
		size += 2 + len(e.Key) + 2*8
	}
	if buf == nil {
		// EncodeSnapshot's result is kept, not reused: size it exactly.
		buf = make([]byte, 0, size)
	}
	buf = slices.Grow(buf, size)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(s.Node)))
	buf = append(buf, s.Node...)
	buf = binary.LittleEndian.AppendUint64(buf, s.Seq)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(s.WindowStartUS))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(s.WindowEndUS))
	var flags uint8
	if s.Final {
		flags |= snapFlagFinal
	}
	if s.SizeReport != nil {
		flags |= snapFlagSizeReport
	}
	if s.IatReport != nil {
		flags |= snapFlagIatReport
	}
	buf = append(buf, flags)
	buf = binary.LittleEndian.AppendUint32(buf, s.Shards)
	for _, v := range [...]uint64{s.Offered, s.Processed, s.Selected, s.Dropped} {
		buf = binary.LittleEndian.AppendUint64(buf, v)
	}
	buf = appendCounts(buf, s.SizeCounts)
	buf = appendCounts(buf, s.IatCounts)
	if s.SizeReport != nil {
		buf = metrics.AppendReport(buf, *s.SizeReport)
	}
	if s.IatReport != nil {
		buf = metrics.AppendReport(buf, *s.IatReport)
	}
	for _, v := range [...]uint64{
		s.FlowCounts.Flows, s.FlowCounts.Packets, s.FlowCounts.Bytes,
		s.FlowCounts.Singletons, s.ActiveFlows,
	} {
		buf = binary.LittleEndian.AppendUint64(buf, v)
	}
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(s.TopK)))
	for _, e := range s.TopK {
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(e.Key)))
		buf = append(buf, e.Key...)
		buf = binary.LittleEndian.AppendUint64(buf, e.Count)
		buf = binary.LittleEndian.AppendUint64(buf, e.MaxError)
	}
	return buf, nil
}

// decodeSnapshot parses a snapshot payload, enforcing every length
// bound and exact payload consumption. Every length field is checked
// against the bytes that remain before anything is sized from it, and
// the result is a handful of objects whatever it holds: the snapshot
// with its reports, one array under both histograms, the entries, and
// one string the entries' keys are cut from.
func decodeSnapshot(payload []byte) (*Snapshot, error) {
	blk := &struct {
		Snapshot
		sizeRep, iatRep metrics.Report
	}{}
	s := &blk.Snapshot
	node, off, err := readString(payload, 0)
	if err != nil {
		return nil, err
	}
	s.Node = node
	u64 := func() (uint64, error) {
		if off+8 > len(payload) {
			return 0, fmt.Errorf("%w: truncated snapshot", ErrWire)
		}
		v := binary.LittleEndian.Uint64(payload[off:])
		off += 8
		return v, nil
	}
	if s.Seq, err = u64(); err != nil {
		return nil, err
	}
	var v uint64
	if v, err = u64(); err != nil {
		return nil, err
	}
	s.WindowStartUS = int64(v)
	if v, err = u64(); err != nil {
		return nil, err
	}
	s.WindowEndUS = int64(v)
	if off >= len(payload) {
		return nil, fmt.Errorf("%w: missing snapshot flags", ErrWire)
	}
	flags := payload[off]
	off++
	s.Final = flags&snapFlagFinal != 0
	if off+4 > len(payload) {
		return nil, fmt.Errorf("%w: truncated snapshot", ErrWire)
	}
	s.Shards = binary.LittleEndian.Uint32(payload[off:])
	off += 4
	for _, dst := range [...]*uint64{&s.Offered, &s.Processed, &s.Selected, &s.Dropped} {
		if *dst, err = u64(); err != nil {
			return nil, err
		}
	}
	nSize, err := countsLen(payload, off)
	if err != nil {
		return nil, err
	}
	nIat, err := countsLen(payload, off+2+8*nSize)
	if err != nil {
		return nil, err
	}
	counts := make([]uint64, nSize+nIat)
	s.SizeCounts, off = readCounts(counts[:nSize:nSize], payload, off+2)
	s.IatCounts, off = readCounts(counts[nSize:], payload, off+2)
	if flags&snapFlagSizeReport != 0 {
		s.SizeReport = &blk.sizeRep
	}
	if flags&snapFlagIatReport != 0 {
		s.IatReport = &blk.iatRep
	}
	for _, rep := range [...]*metrics.Report{s.SizeReport, s.IatReport} {
		if rep == nil {
			continue
		}
		var rest []byte
		if *rep, rest, err = metrics.DecodeReport(payload[off:]); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrWire, err)
		}
		off = len(payload) - len(rest)
	}
	for _, dst := range [...]*uint64{
		&s.FlowCounts.Flows, &s.FlowCounts.Packets, &s.FlowCounts.Bytes,
		&s.FlowCounts.Singletons, &s.ActiveFlows,
	} {
		if *dst, err = u64(); err != nil {
			return nil, err
		}
	}
	if off+2 > len(payload) {
		return nil, fmt.Errorf("%w: missing top-k count", ErrWire)
	}
	nTop := int(binary.LittleEndian.Uint16(payload[off:]))
	off += 2
	if nTop > maxTopEntries {
		return nil, fmt.Errorf("%w: top-k count %d exceeds limit", ErrWire, nTop)
	}
	// First pass: walk the entries' frames without building anything, so
	// a count or key length the payload cannot hold fails before the
	// entries are made, and size the one string the keys are cut from.
	end, keyBytes := off, 0
	for i := 0; i < nTop; i++ {
		if end+2 > len(payload) {
			return nil, fmt.Errorf("%w: missing string length", ErrWire)
		}
		n := int(binary.LittleEndian.Uint16(payload[end:]))
		if n > maxNameLen || end+2+n+16 > len(payload) {
			return nil, fmt.Errorf("%w: top-k entry overruns payload", ErrWire)
		}
		keyBytes += n
		end += 2 + n + 16
	}
	if end != len(payload) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrWire, len(payload)-end)
	}
	if nTop == 0 {
		return s, nil
	}
	// Grown once to its final size, the builder never moves, and it never
	// rewrites what it holds: each key is cut as soon as it is written.
	var keys strings.Builder
	keys.Grow(keyBytes)
	s.TopK = make([]nnstat.Entry, nTop)
	for i := range s.TopK {
		n := int(binary.LittleEndian.Uint16(payload[off:]))
		off += 2
		keys.Write(payload[off : off+n])
		off += n
		s.TopK[i] = nnstat.Entry{
			Key:      keys.String()[keys.Len()-n:],
			Count:    binary.LittleEndian.Uint64(payload[off:]),
			MaxError: binary.LittleEndian.Uint64(payload[off+8:]),
		}
		off += 16
	}
	return s, nil
}

// appendCounts writes a uint16-count-prefixed uint64 array.
func appendCounts(buf []byte, counts []uint64) []byte {
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(counts)))
	for _, c := range counts {
		buf = binary.LittleEndian.AppendUint64(buf, c)
	}
	return buf
}

// countsLen reads the uint16 length of the count array at off and
// checks it against the limit and the bytes that remain, so the caller
// may size storage from it.
func countsLen(b []byte, off int) (int, error) {
	if off+2 > len(b) {
		return 0, fmt.Errorf("%w: missing count array length", ErrWire)
	}
	n := int(binary.LittleEndian.Uint16(b[off:]))
	if n > maxSnapshotBins {
		return 0, fmt.Errorf("%w: count array length %d exceeds limit", ErrWire, n)
	}
	if off+2+8*n > len(b) {
		return 0, fmt.Errorf("%w: count array overruns payload", ErrWire)
	}
	return n, nil
}

// readCounts fills dst from the uint64 array at off (past its length
// field, which countsLen has checked) and returns it with the offset
// that follows; an empty array decodes to nil.
func readCounts(dst []uint64, b []byte, off int) ([]uint64, int) {
	if len(dst) == 0 {
		return nil, off
	}
	for i := range dst {
		dst[i] = binary.LittleEndian.Uint64(b[off:])
		off += 8
	}
	return dst, off
}
