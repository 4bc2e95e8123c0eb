package packet

import (
	"encoding/binary"
	"fmt"
)

// Transport header lengths (without options).
const (
	TCPHeaderLen  = 20
	UDPHeaderLen  = 8
	ICMPHeaderLen = 8
)

// Well-known ports of the application mix that dominated early-90s NSFNET
// traffic; the paper's Table 1 tracks a "TCP/UDP port distribution,
// well-known subset".
const (
	PortFTPData uint16 = 20
	PortFTP     uint16 = 21
	PortTelnet  uint16 = 23
	PortSMTP    uint16 = 25
	PortDNS     uint16 = 53
	PortFinger  uint16 = 79
	PortHTTP    uint16 = 80
	PortNNTP    uint16 = 119
	PortNTP     uint16 = 123
	PortSNMP    uint16 = 161
	PortIRC     uint16 = 194
)

// PortName returns the conventional service name for a well-known port,
// or "other" if the port is not in the tracked subset.
func PortName(port uint16) string {
	switch port {
	case PortFTPData:
		return "ftp-data"
	case PortFTP:
		return "ftp"
	case PortTelnet:
		return "telnet"
	case PortSMTP:
		return "smtp"
	case PortDNS:
		return "domain"
	case PortFinger:
		return "finger"
	case PortHTTP:
		return "http"
	case PortNNTP:
		return "nntp"
	case PortNTP:
		return "ntp"
	case PortSNMP:
		return "snmp"
	case PortIRC:
		return "irc"
	default:
		return "other"
	}
}

// TCP is a TCP header without options. Only the fields the statistics
// objects consume are modeled; the checksum is computed over the header
// with a zeroed pseudo-header contribution from the caller's IPv4 header.
type TCP struct {
	SrcPort, DstPort uint16
	Seq, Ack         uint32
	Flags            uint8 // FIN..URG bits, low 6
	Window           uint16
}

// TCP flag bits.
const (
	TCPFin uint8 = 1 << iota
	TCPSyn
	TCPRst
	TCPPsh
	TCPAck
	TCPUrg
)

// Encode serializes the TCP header into buf and returns bytes written.
// The checksum field is left zero: the trace format stores IP-layer
// packets whose transport checksums were not preserved by the capture
// (consistent with header-only tracing).
func (t *TCP) Encode(buf []byte) (int, error) {
	if len(buf) < TCPHeaderLen {
		return 0, ErrTruncated
	}
	if t.Flags > 0x3f {
		return 0, fmt.Errorf("%w: tcp flags %#x", ErrBadField, t.Flags)
	}
	binary.BigEndian.PutUint16(buf[0:], t.SrcPort)
	binary.BigEndian.PutUint16(buf[2:], t.DstPort)
	binary.BigEndian.PutUint32(buf[4:], t.Seq)
	binary.BigEndian.PutUint32(buf[8:], t.Ack)
	buf[12] = 5 << 4 // data offset 5 words
	buf[13] = t.Flags
	binary.BigEndian.PutUint16(buf[14:], t.Window)
	binary.BigEndian.PutUint16(buf[16:], 0) // checksum not preserved
	binary.BigEndian.PutUint16(buf[18:], 0) // urgent pointer
	return TCPHeaderLen, nil
}

// DecodeTCP parses a TCP header from buf.
func DecodeTCP(buf []byte) (TCP, int, error) {
	if len(buf) < TCPHeaderLen {
		return TCP{}, 0, ErrTruncated
	}
	off := int(buf[12]>>4) * 4
	if off < TCPHeaderLen {
		return TCP{}, 0, fmt.Errorf("%w: tcp data offset %d", ErrBadField, off)
	}
	var t TCP
	t.SrcPort = binary.BigEndian.Uint16(buf[0:])
	t.DstPort = binary.BigEndian.Uint16(buf[2:])
	t.Seq = binary.BigEndian.Uint32(buf[4:])
	t.Ack = binary.BigEndian.Uint32(buf[8:])
	t.Flags = buf[13] & 0x3f
	t.Window = binary.BigEndian.Uint16(buf[14:])
	return t, off, nil
}

// UDP is a UDP header. Length covers header plus payload.
type UDP struct {
	SrcPort, DstPort uint16
	Length           uint16
}

// Encode serializes the UDP header into buf and returns bytes written.
func (u *UDP) Encode(buf []byte) (int, error) {
	if len(buf) < UDPHeaderLen {
		return 0, ErrTruncated
	}
	if u.Length < UDPHeaderLen {
		return 0, fmt.Errorf("%w: udp length %d", ErrBadField, u.Length)
	}
	binary.BigEndian.PutUint16(buf[0:], u.SrcPort)
	binary.BigEndian.PutUint16(buf[2:], u.DstPort)
	binary.BigEndian.PutUint16(buf[4:], u.Length)
	binary.BigEndian.PutUint16(buf[6:], 0) // checksum optional in v4
	return UDPHeaderLen, nil
}

// DecodeUDP parses a UDP header from buf.
func DecodeUDP(buf []byte) (UDP, int, error) {
	if len(buf) < UDPHeaderLen {
		return UDP{}, 0, ErrTruncated
	}
	var u UDP
	u.SrcPort = binary.BigEndian.Uint16(buf[0:])
	u.DstPort = binary.BigEndian.Uint16(buf[2:])
	u.Length = binary.BigEndian.Uint16(buf[4:])
	if u.Length < UDPHeaderLen {
		return UDP{}, 0, fmt.Errorf("%w: udp length %d", ErrBadField, u.Length)
	}
	return u, UDPHeaderLen, nil
}

// ICMP is an ICMP header (type, code and the rest-of-header word).
type ICMP struct {
	Type, Code uint8
	Rest       uint32
}

// Encode serializes the ICMP header into buf with a valid checksum over
// the 8 header bytes and returns bytes written.
func (c *ICMP) Encode(buf []byte) (int, error) {
	if len(buf) < ICMPHeaderLen {
		return 0, ErrTruncated
	}
	buf[0] = c.Type
	buf[1] = c.Code
	buf[2], buf[3] = 0, 0
	binary.BigEndian.PutUint32(buf[4:], c.Rest)
	binary.BigEndian.PutUint16(buf[2:], Checksum(buf[:ICMPHeaderLen]))
	return ICMPHeaderLen, nil
}
