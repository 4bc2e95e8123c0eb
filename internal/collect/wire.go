// Package collect implements the backbone-wide centralized statistics
// collection of Section 2: every (scaled) poll interval the central
// agent at the NOC connects to each backbone node, which reports and
// then resets its object counters. The node side is Agent, a TCP server
// wrapping a live arts.ObjectSet; the NOC side is Collector, which polls
// many agents concurrently and merges their reports into a
// backbone-wide view.
//
// Wire protocol version 2 (all integers little-endian):
//
//	frame:   magic uint16 = 0x4E53 ("NS"), version uint8 = 2,
//	         type uint8, payloadLen uint32, crc uint32 (IEEE CRC-32
//	         over the first 8 header bytes and the payload), payload.
//	types:   1 = poll request (payload: ack uint64, the last cycle
//	         sequence this collector received; cuts or retransmits a
//	         cycle), 2 = query request (report only, no cycle), 3 =
//	         report response, 4 = error response, 5 = snapshot query,
//	         6 = snapshot response.
//	report:  cycle uint64 (0 = live query view, >= 1 = poll cycle),
//	         nodeName (uint16 len + bytes), backbone uint8,
//	         objectCount uint16, then per object:
//	         name (uint16 len + bytes), dataLen uint32, data.
//
// Version 2 replaced the v1 report-and-reset poll with an ack-based
// cycle: the agent keeps each cut cycle until the next poll request
// acknowledges it, so a poll retried after a lost response retransmits
// the same cycle instead of losing the interval (DESIGN.md §11).
// Version 1 frames are answered with a typed error response before the
// connection is dropped.
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

	"netsample/internal/arts"
)

// Protocol constants.
const (
	wireMagic   = 0x4E53
	wireVersion = 2
	frameHeader = 12
	MaxPayload  = 64 << 20 // 64 MiB bounds a full src-dst matrix report
	maxNameLen  = 256
	maxObjects  = 64
)

// readChunk caps how far ahead of the received bytes the payload buffer
// is allocated: a forged header declaring MaxPayload costs at most one
// chunk until real payload bytes arrive.
const readChunk = 64 << 10

// Message types.
const (
	TypePoll   uint8 = 1
	TypeQuery  uint8 = 2
	TypeReport uint8 = 3
	TypeError  uint8 = 4
	// TypeSnapshotQuery requests the node's latest pipeline window
	// snapshot; TypeSnapshot carries it (see Snapshot for the layout).
	TypeSnapshotQuery uint8 = 5
	TypeSnapshot      uint8 = 6
)

// ErrWire reports a malformed frame or report.
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

// encodeAck builds a poll request payload: the cycle sequence number of
// the last report this collector received from the agent (0 = none).
func encodeAck(ack uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], ack)
	return b[:]
}

// decodeAck parses a poll request payload.
func decodeAck(payload []byte) (uint64, error) {
	if len(payload) != 8 {
		return 0, fmt.Errorf("%w: poll request payload is %d bytes, want 8", ErrWire, len(payload))
	}
	return binary.LittleEndian.Uint64(payload), nil
}

// Report is one node's poll response, decoded.
type Report struct {
	Node     string
	Cycle    uint64 // poll cycle sequence; 0 marks a live query view
	Backbone arts.Backbone
	Objects  map[string][]byte // object name → serialized counters
}

// encodeReport serializes a report from a node's object set, stamped
// with the given cycle sequence number (0 for a query view).
func encodeReport(node string, set *arts.ObjectSet, cycle uint64) ([]byte, error) {
	if len(node) > maxNameLen {
		return nil, fmt.Errorf("%w: node name too long", ErrWire)
	}
	objs := set.Objects()
	if len(objs) > maxObjects {
		return nil, fmt.Errorf("%w: too many objects", ErrWire)
	}
	var buf []byte
	buf = binary.LittleEndian.AppendUint64(buf, cycle)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(node)))
	buf = append(buf, node...)
	buf = append(buf, byte(set.Backbone))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(objs)))
	for _, o := range objs {
		data, err := o.MarshalBinary()
		if err != nil {
			return nil, err
		}
		name := o.Name()
		if len(name) > maxNameLen {
			return nil, fmt.Errorf("%w: object name too long", ErrWire)
		}
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(name)))
		buf = append(buf, name...)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(data)))
		buf = append(buf, data...)
	}
	return buf, nil
}

// decodeReport parses a report payload.
func decodeReport(payload []byte) (*Report, error) {
	r := &Report{Objects: make(map[string][]byte)}
	if len(payload) < 8 {
		return nil, fmt.Errorf("%w: missing cycle sequence", ErrWire)
	}
	r.Cycle = binary.LittleEndian.Uint64(payload)
	off := 8
	name, off, err := readString(payload, off)
	if err != nil {
		return nil, err
	}
	r.Node = name
	if off >= len(payload) {
		return nil, fmt.Errorf("%w: missing backbone", ErrWire)
	}
	r.Backbone = arts.Backbone(payload[off])
	off++
	if off+2 > len(payload) {
		return nil, fmt.Errorf("%w: missing object count", ErrWire)
	}
	count := int(binary.LittleEndian.Uint16(payload[off:]))
	off += 2
	if count > maxObjects {
		return nil, fmt.Errorf("%w: object count %d exceeds limit", ErrWire, count)
	}
	for i := 0; i < count; i++ {
		var objName string
		objName, off, err = readString(payload, off)
		if err != nil {
			return nil, err
		}
		if off+4 > len(payload) {
			return nil, fmt.Errorf("%w: missing object length", ErrWire)
		}
		n := int(binary.LittleEndian.Uint32(payload[off:]))
		off += 4
		if n < 0 || off+n > len(payload) {
			return nil, fmt.Errorf("%w: object %q overruns payload", ErrWire, objName)
		}
		r.Objects[objName] = append([]byte(nil), payload[off:off+n]...)
		off += n
	}
	if off != len(payload) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrWire, len(payload)-off)
	}
	return r, nil
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

// Matrix returns the report's decoded source-destination matrix, if
// present.
func (r *Report) Matrix() (*arts.SrcDstMatrix, error) {
	data, ok := r.Objects["src-dst-matrix"]
	if !ok {
		return nil, fmt.Errorf("%w: report has no src-dst-matrix", ErrWire)
	}
	m := arts.NewSrcDstMatrix()
	if err := m.UnmarshalBinary(data); err != nil {
		return nil, err
	}
	return m, nil
}

// Ports returns the report's decoded port distribution, if present.
func (r *Report) Ports() (*arts.PortDistribution, error) {
	data, ok := r.Objects["port-distribution"]
	if !ok {
		return nil, fmt.Errorf("%w: report has no port-distribution", ErrWire)
	}
	d := arts.NewPortDistribution()
	if err := d.UnmarshalBinary(data); err != nil {
		return nil, err
	}
	return d, nil
}

// Protocols returns the report's decoded protocol distribution, if
// present.
func (r *Report) Protocols() (*arts.ProtocolDistribution, error) {
	data, ok := r.Objects["protocol-distribution"]
	if !ok {
		return nil, fmt.Errorf("%w: report has no protocol-distribution", ErrWire)
	}
	d := arts.NewProtocolDistribution()
	if err := d.UnmarshalBinary(data); err != nil {
		return nil, err
	}
	return d, nil
}
