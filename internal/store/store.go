// Package store is the durable snapshot store: an append-only, on-disk
// segment log for the collect snapshot wire payloads, with CRC-framed
// records, batched group-fsync, and Merkle-chained segment integrity.
// It is the retention layer under cmd/nsd (-store persists every cut
// window snapshot), cmd/noccollect (-store persists polled fleet
// snapshots), and cmd/nocquery (time-range queries answered from disk).
// DESIGN.md §7 documents the format and the recovery rules.
//
// Layout: a store is a directory of segment files numbered from 1.
// Each segment is
//
//	header (64 bytes):
//	  magic "NSSG", version uint16, reserved uint16, seq uint64,
//	  prevRoot [32]byte, headerCRC uint32 (IEEE over the first 48
//	  bytes), zero padding to 64.
//	records, each a frame:
//	  payloadLen uint32, kind uint8, timeUS int64, frameCRC uint32
//	  (IEEE over the 13 header bytes and the payload), payload.
//	seal footer (sealed segments only): one more frame with
//	  kind 0xFF whose 56-byte payload is
//	  records uint64, firstUS int64, lastUS int64, root [32]byte.
//
// All integers are little-endian. timeUS is a virtual-clock timestamp
// (the snapshot's window end) — the store never reads the wall clock.
//
// Integrity is chained: a sealed segment's root is
// sha256(prevRoot ‖ merkleRoot(record hashes) ‖ seq), each leaf the
// sha256 of one full record frame, and the next segment's header
// carries this root as its prevRoot. Verify recomputes the whole chain
// and names the segment file and byte offset of the first corruption —
// a single flipped byte anywhere is caught by the record CRC (CRC-32
// detects all single-byte errors) or by a root mismatch.
//
// Sealing is itself an append (the footer frame), so segment files are
// written strictly append-only and every crash state is a prefix of
// some file. Open, OpenReader and Verify read the chain through one
// walk (walkChain), so they accept the same stores: only the final
// segment may lack its seal, and only that tail is ever repaired.
package store

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Segment format constants.
const (
	segVersion   = 1
	headerLen    = 64
	headerCRCOff = 48
	frameHdrLen  = 17 // payloadLen u32 + kind u8 + timeUS i64 + crc u32
	sealLen      = 56 // records u64 + firstUS i64 + lastUS i64 + root [32]
	sealFrameLen = frameHdrLen + sealLen

	// maxRecordPayload bounds a record's declared length so a corrupt
	// length field reads as a torn/corrupt frame instead of driving a
	// huge read. Snapshot payloads are a few KiB; this is generous.
	maxRecordPayload = 16 << 20
)

// segMagic opens every segment file.
var segMagic = [4]byte{'N', 'S', 'S', 'G'}

// Record kinds. Kind 2 once held 56-byte metrics.Report records that no
// shipped writer produced; its number is not reused, and a reader
// accepts and replays a kind-2 record like any other data kind.
const (
	// KindSnapshot records carry a canonical collect snapshot payload
	// (collect.EncodeSnapshot bytes, exactly as a TypeSnapshot frame
	// would). timeUS is the snapshot's WindowEndUS.
	KindSnapshot uint8 = 1
	// kindSeal marks the seal footer closing a segment.
	kindSeal uint8 = 0xFF
)

// Errors.
var (
	// ErrCorrupt is the base error every CorruptionError unwraps to.
	ErrCorrupt = errors.New("store: corrupt segment")
	// ErrClosed reports an operation on a closed Writer or Reader.
	ErrClosed = errors.New("store: closed")
)

// CorruptionError names the exact place verification or recovery found
// a damaged byte: the segment file and the byte offset of the frame (or
// header field) that failed its check.
type CorruptionError struct {
	Segment string // segment file name, e.g. "seg-00000002.nss"
	Offset  int64  // byte offset within the segment file
	Reason  string
}

func (e *CorruptionError) Error() string {
	return fmt.Sprintf("store: %s: offset %d: %s", e.Segment, e.Offset, e.Reason)
}

func (e *CorruptionError) Unwrap() error { return ErrCorrupt }

// corruptf builds a CorruptionError in place.
func corruptf(segment string, offset int64, format string, args ...any) *CorruptionError {
	return &CorruptionError{Segment: segment, Offset: offset, Reason: fmt.Sprintf(format, args...)}
}

// segName renders the canonical file name for segment seq.
func segName(seq uint64) string { return fmt.Sprintf("seg-%08d.nss", seq) }

// appendHeader appends a 64-byte segment header to buf.
func appendHeader(buf []byte, seq uint64, prevRoot [32]byte) []byte {
	var h [headerLen]byte
	copy(h[0:4], segMagic[:])
	binary.LittleEndian.PutUint16(h[4:6], segVersion)
	binary.LittleEndian.PutUint64(h[8:16], seq)
	copy(h[16:48], prevRoot[:])
	binary.LittleEndian.PutUint32(h[headerCRCOff:], crc32.ChecksumIEEE(h[:headerCRCOff]))
	return append(buf, h[:]...)
}

// parseHeader validates a segment header, returning its sequence number
// and chain predecessor root.
func parseHeader(name string, data []byte) (seq uint64, prevRoot [32]byte, err error) {
	if len(data) < headerLen {
		return 0, prevRoot, corruptf(name, 0, "file is %d bytes, header needs %d", len(data), headerLen)
	}
	if [4]byte(data[0:4]) != segMagic {
		return 0, prevRoot, corruptf(name, 0, "bad magic %q", data[0:4])
	}
	if v := binary.LittleEndian.Uint16(data[4:6]); v != segVersion {
		return 0, prevRoot, corruptf(name, 4, "unsupported segment version %d", v)
	}
	if got, want := binary.LittleEndian.Uint32(data[headerCRCOff:]), crc32.ChecksumIEEE(data[:headerCRCOff]); got != want {
		return 0, prevRoot, corruptf(name, headerCRCOff, "header checksum mismatch")
	}
	for i := headerCRCOff + 4; i < headerLen; i++ {
		// The pad bytes sit outside the CRC's coverage, so they are
		// pinned to zero explicitly — otherwise a flipped pad byte
		// would be the one undetectable corruption in a segment.
		if data[i] != 0 {
			return 0, prevRoot, corruptf(name, int64(i), "nonzero header padding")
		}
	}
	seq = binary.LittleEndian.Uint64(data[8:16])
	copy(prevRoot[:], data[16:48])
	return seq, prevRoot, nil
}

// appendFrame appends one record frame to buf and returns the extended
// buffer. The frame CRC covers the 13 leading header bytes and the
// payload, so any single flipped byte in either is detected on read.
//
//nslint:hotpath
func appendFrame(buf []byte, kind uint8, timeUS int64, payload []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	//nslint:allow hotalloc amortized: the frame buffer retains its capacity across appends and is reset at each sync
	buf = append(buf, kind)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(timeUS))
	n := len(buf)
	crc := crc32.Update(crc32.ChecksumIEEE(buf[n-13:n]), crc32.IEEETable, payload)
	buf = binary.LittleEndian.AppendUint32(buf, crc)
	//nslint:allow hotalloc amortized: same buffer growth as above
	buf = append(buf, payload...)
	return buf
}

// sealInfo is a decoded seal footer.
type sealInfo struct {
	records uint64
	firstUS int64
	lastUS  int64
	root    [32]byte
}

// appendSealPayload renders a seal footer payload.
func appendSealPayload(buf []byte, s sealInfo) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, s.records)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(s.firstUS))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(s.lastUS))
	return append(buf, s.root[:]...)
}

// parseSealPayload decodes a seal footer payload.
func parseSealPayload(p []byte) (sealInfo, bool) {
	var s sealInfo
	if len(p) != sealLen {
		return s, false
	}
	s.records = binary.LittleEndian.Uint64(p[0:8])
	s.firstUS = int64(binary.LittleEndian.Uint64(p[8:16]))
	s.lastUS = int64(binary.LittleEndian.Uint64(p[16:24]))
	copy(s.root[:], p[24:56])
	return s, true
}

// Record is one store entry as handed to replay callbacks. Payload
// aliases the segment's mapped region (or read buffer) and is only
// valid for the duration of the callback — decode or copy before
// returning. Segment and Offset name the record's location for
// diagnostics, matching what Verify reports.
type Record struct {
	Kind    uint8
	TimeUS  int64
	Payload []byte
	Segment uint64 // owning segment's sequence number
	Offset  int64  // byte offset of the record's frame in its file
}

// scanState is the result of walking a segment's record area.
type scanState struct {
	records  uint64
	firstUS  int64
	lastUS   int64
	leaves   [][32]byte // per-record frame hashes (when requested)
	sealed   bool
	seal     sealInfo
	sealOff  int64 // offset of the seal frame when sealed
	validLen int64 // bytes from offset 0 forming valid header + frames
	torn     *CorruptionError
}

// frameAt decodes the frame at off, checking its bounds, its length
// limit and its CRC; bad names the first check that failed.
func frameAt(name string, data []byte, off int64) (kind uint8, timeUS int64, payload []byte, bad *CorruptionError) {
	size := int64(len(data))
	if off+frameHdrLen > size {
		return 0, 0, nil, corruptf(name, off, "truncated frame header (%d of %d bytes)", size-off, frameHdrLen)
	}
	hdr := data[off : off+frameHdrLen]
	plen := int64(binary.LittleEndian.Uint32(hdr[0:4]))
	if plen > maxRecordPayload {
		return 0, 0, nil, corruptf(name, off, "record payload length %d exceeds limit", plen)
	}
	if off+frameHdrLen+plen > size {
		return 0, 0, nil, corruptf(name, off, "record payload overruns file (%d of %d bytes)", size-off-frameHdrLen, plen)
	}
	payload = data[off+frameHdrLen : off+frameHdrLen+plen]
	if crc32.Update(crc32.ChecksumIEEE(hdr[:13]), crc32.IEEETable, payload) != binary.LittleEndian.Uint32(hdr[13:17]) {
		return 0, 0, nil, corruptf(name, off, "record checksum mismatch")
	}
	return hdr[4], int64(binary.LittleEndian.Uint64(hdr[5:13])), payload, nil
}

// footer decodes the seal that closes a sealed segment: ok is true if
// and only if the last sealFrameLen bytes of data are an intact seal
// frame.
func footer(data []byte) (seal sealInfo, ok bool) {
	off := int64(len(data)) - sealFrameLen
	if off < headerLen {
		return seal, false
	}
	kind, _, payload, bad := frameAt("", data, off)
	if bad != nil || kind != kindSeal {
		return seal, false
	}
	return parseSealPayload(payload)
}

// scanSegment walks every frame of a segment file image. name and seq
// label diagnostics and records. When collectLeaves is set the per-
// record frame hashes are accumulated for Merkle recomputation. fn, when
// non-nil, is invoked for every data record in order; its error aborts
// the scan.
//
// The walk stops cleanly at end-of-file or at a valid seal footer.
// Anything else — a frame header or payload running past EOF, a CRC
// mismatch, an oversized length field, bytes after the seal — ends the
// scan with st.torn describing the first bad byte and st.validLen
// marking the last good frame boundary. Callers choose the policy
// (see link.scan).
func scanSegment(name string, seq uint64, data []byte, collectLeaves bool, fn func(Record) error) (scanState, error) {
	var st scanState
	if len(data) < headerLen {
		st.torn = corruptf(name, int64(len(data)), "file is %d bytes, header needs %d", len(data), headerLen)
		return st, nil
	}
	st.validLen = headerLen
	off := int64(headerLen)
	size := int64(len(data))
	for off < size {
		if st.sealed {
			st.torn = corruptf(name, off, "%d trailing bytes after seal footer", size-off)
			return st, nil
		}
		kind, timeUS, payload, bad := frameAt(name, data, off)
		if bad != nil {
			st.torn = bad
			return st, nil
		}
		end := off + frameHdrLen + int64(len(payload))
		if kind == kindSeal {
			seal, ok := parseSealPayload(payload)
			if !ok {
				st.torn = corruptf(name, off, "seal footer payload is %d bytes, want %d", len(payload), sealLen)
				return st, nil
			}
			st.sealed = true
			st.seal = seal
			st.sealOff = off
		} else {
			if collectLeaves {
				st.leaves = append(st.leaves, sha256.Sum256(data[off:end]))
			}
			if st.records == 0 {
				st.firstUS, st.lastUS = timeUS, timeUS
			} else if timeUS < st.firstUS {
				st.firstUS = timeUS
			} else if timeUS > st.lastUS {
				st.lastUS = timeUS
			}
			st.records++
			if fn != nil {
				if err := fn(Record{Kind: kind, TimeUS: timeUS, Payload: payload, Segment: seq, Offset: off}); err != nil {
					return st, err
				}
			}
		}
		off = end
		st.validLen = off
	}
	return st, nil
}
