// Package packet implements encoding and decoding of the IPv4, TCP, UDP
// and ICMP headers that the study's trace machinery carries. It plays the
// role gopacket's layers package would in a modern reproduction, but is
// written from scratch over the standard library so the module stays
// dependency-free.
//
// The model mirrors the 1993 NSFNET setting: the statistics software sees
// IP packets (no link layer is preserved) and categorizes them by IP
// protocol, TCP/UDP port, total length, and classful network number —
// exactly the fields ARTS and NNStat keyed their objects on (Table 1 of
// the paper).
package packet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strconv"
)

// Errors returned by the decoders.
var (
	ErrTruncated = errors.New("packet: buffer too short for header")
	ErrBadField  = errors.New("packet: header field out of range")
)

// Protocol is an IP protocol number.
type Protocol uint8

// IP protocol numbers observed on the NSFNET backbone (the paper's
// Table 1 "distribution of protocol over IP (e.g., TCP, UDP, ICMP)").
const (
	ProtoICMP Protocol = 1
	ProtoIGMP Protocol = 2
	ProtoTCP  Protocol = 6
	ProtoEGP  Protocol = 8
	ProtoUDP  Protocol = 17
	ProtoOSPF Protocol = 89
)

// String returns the conventional protocol name.
func (p Protocol) String() string {
	switch p {
	case ProtoICMP:
		return "ICMP"
	case ProtoIGMP:
		return "IGMP"
	case ProtoTCP:
		return "TCP"
	case ProtoEGP:
		return "EGP"
	case ProtoUDP:
		return "UDP"
	case ProtoOSPF:
		return "OSPF"
	default:
		return fmt.Sprintf("proto-%d", uint8(p))
	}
}

// Addr is an IPv4 address in host-independent 4-byte form.
type Addr [4]byte

// String renders dotted-quad notation.
func (a Addr) String() string {
	var buf [15]byte // len("255.255.255.255")
	return string(a.AppendTo(buf[:0]))
}

// AppendTo appends the dotted-quad notation to dst and returns the
// extended slice; it allocates only when dst lacks room for it.
func (a Addr) AppendTo(dst []byte) []byte {
	dst = strconv.AppendUint(dst, uint64(a[0]), 10)
	for _, o := range a[1:] {
		dst = append(dst, '.')
		dst = strconv.AppendUint(dst, uint64(o), 10)
	}
	return dst
}

// AddrFrom returns the Addr for a big-endian uint32.
func AddrFrom(v uint32) Addr {
	var a Addr
	binary.BigEndian.PutUint32(a[:], v)
	return a
}

// Uint32 returns the address as a big-endian uint32.
func (a Addr) Uint32() uint32 { return binary.BigEndian.Uint32(a[:]) }

// NetworkNumber returns the classful network number of the address as it
// would have been extracted in 1993 for the NSFNET source-destination
// traffic matrix: /8 for class A, /16 for class B, /24 for class C.
// Class D/E addresses are returned whole.
func (a Addr) NetworkNumber() Addr {
	switch {
	case a[0] < 128: // class A
		return Addr{a[0], 0, 0, 0}
	case a[0] < 192: // class B
		return Addr{a[0], a[1], 0, 0}
	case a[0] < 224: // class C
		return Addr{a[0], a[1], a[2], 0}
	default: // class D (multicast) / class E
		return a
	}
}

// Class returns the letter of the address's classful class.
func (a Addr) Class() byte {
	switch {
	case a[0] < 128:
		return 'A'
	case a[0] < 192:
		return 'B'
	case a[0] < 224:
		return 'C'
	case a[0] < 240:
		return 'D'
	default:
		return 'E'
	}
}

// Checksum computes the Internet checksum (RFC 1071) over data.
func Checksum(data []byte) uint16 {
	var sum uint32
	n := len(data)
	for i := 0; i+1 < n; i += 2 {
		sum += uint32(binary.BigEndian.Uint16(data[i:]))
	}
	if n%2 == 1 {
		sum += uint32(data[n-1]) << 8
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}
