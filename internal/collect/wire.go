// Package collect implements the backbone-wide centralized statistics
// collection of Section 2: every (scaled) poll interval the central
// agent at the NOC connects to each backbone node and reads its latest
// window. The node side is Agent, a TCP server exporting a pipeline's
// window snapshots (SnapshotSource); the NOC side is Collector, whose
// PollSnapshot fetches one node's latest snapshot.
//
// Wire protocol version 2 (all integers little-endian):
//
//	frame:   magic uint16 = 0x4E53 ("NS"), version uint8 = 2,
//	         type uint8, payloadLen uint32, crc uint32 (IEEE CRC-32
//	         over the first 8 header bytes and the payload), payload.
//	types:   4 = error response, 5 = snapshot query, 6 = snapshot
//	         response (payload: see Snapshot).
//
// Types 1–3 carried the retired report-and-reset poll. Their numbers
// are not reused: an agent answers them, like any unknown type, with a
// typed error response and keeps serving. A snapshot query is read-only,
// so it is safe to retry (DESIGN.md §6). Version 1 frames are answered
// with a typed error response before the connection is dropped.
//
// Payloads are bounded (MaxPayload) so a corrupt or malicious length
// field cannot exhaust memory, and the payload buffer grows chunk by
// chunk with the bytes actually received, so a forged header cannot
// force a large allocation either.
package collect

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Protocol constants.
const (
	wireMagic   = 0x4E53
	wireVersion = 2
	frameHeader = 12
	MaxPayload  = 64 << 20 // 64 MiB: far above any snapshot, far below a forged length
	maxNameLen  = 256
)

// readChunk caps how far ahead of the received bytes the payload buffer
// is allocated: a forged header declaring MaxPayload costs at most one
// chunk until real payload bytes arrive.
const readChunk = 64 << 10

// Message types. 1–3 are retired (see the package comment).
const (
	TypeError uint8 = 4
	// TypeSnapshotQuery requests the node's latest pipeline window
	// snapshot; TypeSnapshot carries it (see Snapshot for the layout).
	TypeSnapshotQuery uint8 = 5
	TypeSnapshot      uint8 = 6
)

// ErrWire reports a malformed frame or snapshot.
var ErrWire = errors.New("collect: malformed wire data")

// ErrVersion reports a frame from a peer speaking another protocol
// version. It wraps ErrWire; agents answer it with a typed error
// response, and collectors treat it as final rather than retryable.
var ErrVersion = fmt.Errorf("%w: unsupported wire version", ErrWire)

// frameCRC is the frame checksum: IEEE CRC-32 over the first 8 header
// bytes (magic, version, type, payload length) and the payload. It is
// what lets the chaos harness corrupt headers arbitrarily — a flipped
// bit is always rejected here instead of silently redirecting a poll.
func frameCRC(hdr []byte, payload []byte) uint32 {
	return crc32.Update(crc32.ChecksumIEEE(hdr[:8]), crc32.IEEETable, payload)
}

// writeFrame sends one frame.
func writeFrame(w io.Writer, msgType uint8, payload []byte) error {
	if len(payload) > MaxPayload {
		return fmt.Errorf("%w: payload %d exceeds limit", ErrWire, len(payload))
	}
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint16(hdr[0:], wireMagic)
	hdr[2] = wireVersion
	hdr[3] = msgType
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[8:], frameCRC(hdr[:], payload))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readFrame receives one frame, enforcing the payload bound and the
// frame checksum. Magic and version are validated from the first four
// bytes alone, before the rest of the header is read, so a v1 peer
// (whose header is shorter) gets ErrVersion instead of stalling the
// reader on bytes that will never arrive.
func readFrame(r io.Reader) (msgType uint8, payload []byte, err error) {
	var hdr [frameHeader]byte
	if _, err := io.ReadFull(r, hdr[:4]); err != nil {
		return 0, nil, err
	}
	if binary.LittleEndian.Uint16(hdr[0:]) != wireMagic {
		return 0, nil, fmt.Errorf("%w: bad magic", ErrWire)
	}
	if hdr[2] != wireVersion {
		return 0, nil, fmt.Errorf("%w %d (want %d)", ErrVersion, hdr[2], wireVersion)
	}
	if _, err := io.ReadFull(r, hdr[4:]); err != nil {
		return 0, nil, fmt.Errorf("%w: truncated header: %v", ErrWire, err)
	}
	n := binary.LittleEndian.Uint32(hdr[4:])
	if n > MaxPayload {
		return 0, nil, fmt.Errorf("%w: payload %d exceeds limit", ErrWire, n)
	}
	payload, err = readPayload(r, int(n))
	if err != nil {
		return 0, nil, fmt.Errorf("%w: truncated payload: %v", ErrWire, err)
	}
	if frameCRC(hdr[:], payload) != binary.LittleEndian.Uint32(hdr[8:]) {
		return 0, nil, fmt.Errorf("%w: frame checksum mismatch", ErrWire)
	}
	return hdr[3], payload, nil
}

// readPayload reads exactly n payload bytes, growing the buffer by
// doubling (capped at n) as bytes arrive rather than trusting the
// declared length up front.
func readPayload(r io.Reader, n int) ([]byte, error) {
	if n == 0 {
		return nil, nil
	}
	buf := make([]byte, min(n, readChunk))
	filled := 0
	for {
		m, err := io.ReadFull(r, buf[filled:])
		filled += m
		if err != nil {
			return nil, err
		}
		if filled == n {
			return buf, nil
		}
		next := make([]byte, min(n, 2*len(buf)))
		copy(next, buf)
		buf = next
	}
}

// readString reads a uint16-length-prefixed string.
func readString(b []byte, off int) (string, int, error) {
	if off+2 > len(b) {
		return "", 0, fmt.Errorf("%w: missing string length", ErrWire)
	}
	n := int(binary.LittleEndian.Uint16(b[off:]))
	off += 2
	if n > maxNameLen || off+n > len(b) {
		return "", 0, fmt.Errorf("%w: string overruns payload", ErrWire)
	}
	return string(b[off : off+n]), off + n, nil
}
