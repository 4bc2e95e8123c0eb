package packet

import (
	"encoding/binary"
	"errors"
	"testing"
	"testing/quick"
)

func TestIPv4RoundTrip(t *testing.T) {
	h := IPv4{
		TOS:         0,
		TotalLength: 552,
		ID:          0x1234,
		Flags:       2, // DF
		FragOffset:  0,
		TTL:         32,
		Protocol:    ProtoTCP,
		Src:         Addr{132, 249, 20, 5},
		Dst:         Addr{128, 102, 18, 3},
	}
	var buf [IPv4HeaderLen]byte
	n, err := h.Encode(buf[:])
	if err != nil || n != IPv4HeaderLen {
		t.Fatalf("encode: %d, %v", n, err)
	}
	got, hl, err := DecodeIPv4(buf[:])
	if err != nil {
		t.Fatal(err)
	}
	if hl != IPv4HeaderLen || got != h {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, h)
	}
}

func TestIPv4ChecksumDetectsCorruption(t *testing.T) {
	h := IPv4{TotalLength: 40, TTL: 30, Protocol: ProtoUDP,
		Src: Addr{10, 0, 0, 1}, Dst: Addr{10, 0, 0, 2}}
	var buf [IPv4HeaderLen]byte
	if _, err := h.Encode(buf[:]); err != nil {
		t.Fatal(err)
	}
	buf[12] ^= 0x01 // flip a bit in the source address
	if _, _, err := DecodeIPv4(buf[:]); err == nil {
		t.Fatal("corrupted header decoded without error")
	}
}

func TestIPv4DecodeErrors(t *testing.T) {
	if _, _, err := DecodeIPv4(make([]byte, 10)); !errors.Is(err, ErrTruncated) {
		t.Errorf("short buffer: %v", err)
	}
	bad := make([]byte, IPv4HeaderLen)
	bad[0] = 0x65 // version 6
	if _, _, err := DecodeIPv4(bad); err == nil {
		t.Error("wrong version accepted")
	}
	bad[0] = 0x41 // IHL 1 word
	if _, _, err := DecodeIPv4(bad); err == nil {
		t.Error("tiny IHL accepted")
	}
}

func TestIPv4EncodeValidation(t *testing.T) {
	var buf [IPv4HeaderLen]byte
	h := IPv4{TotalLength: 10}
	if _, err := h.Encode(buf[:]); !errors.Is(err, ErrBadField) {
		t.Error("short total length accepted")
	}
	h = IPv4{TotalLength: 40, Flags: 8}
	if _, err := h.Encode(buf[:]); !errors.Is(err, ErrBadField) {
		t.Error("wide flags accepted")
	}
	h = IPv4{TotalLength: 40, FragOffset: 0x2000}
	if _, err := h.Encode(buf[:]); !errors.Is(err, ErrBadField) {
		t.Error("wide frag offset accepted")
	}
	h = IPv4{TotalLength: 40}
	if _, err := h.Encode(buf[:5]); !errors.Is(err, ErrTruncated) {
		t.Error("short buffer accepted")
	}
}

func TestIPv4RoundTripProperty(t *testing.T) {
	f := func(tos uint8, length uint16, id uint16, ttl uint8, src, dst uint32) bool {
		if length < IPv4HeaderLen {
			length += IPv4HeaderLen
		}
		h := IPv4{TOS: tos, TotalLength: length, ID: id, TTL: ttl,
			Protocol: ProtoTCP, Src: AddrFrom(src), Dst: AddrFrom(dst)}
		var buf [IPv4HeaderLen]byte
		if _, err := h.Encode(buf[:]); err != nil {
			return false
		}
		got, _, err := DecodeIPv4(buf[:])
		return err == nil && got == h
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTCPRoundTrip(t *testing.T) {
	tc := TCP{SrcPort: 1023, DstPort: PortTelnet, Seq: 0xdeadbeef,
		Ack: 0x01020304, Flags: TCPAck | TCPPsh, Window: 4096}
	var buf [TCPHeaderLen]byte
	n, err := tc.Encode(buf[:])
	if err != nil || n != TCPHeaderLen {
		t.Fatalf("encode: %d, %v", n, err)
	}
	got, off, err := DecodeTCP(buf[:])
	if err != nil || off != TCPHeaderLen {
		t.Fatal(err)
	}
	if got != tc {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, tc)
	}
}

func TestTCPErrors(t *testing.T) {
	var buf [TCPHeaderLen]byte
	bad := TCP{Flags: 0xff}
	if _, err := bad.Encode(buf[:]); !errors.Is(err, ErrBadField) {
		t.Error("wide flags accepted")
	}
	if _, err := (&TCP{}).Encode(buf[:10]); !errors.Is(err, ErrTruncated) {
		t.Error("short buffer accepted")
	}
	if _, _, err := DecodeTCP(buf[:10]); !errors.Is(err, ErrTruncated) {
		t.Error("short decode accepted")
	}
	var short [TCPHeaderLen]byte
	short[12] = 2 << 4 // data offset 8 bytes < 20
	if _, _, err := DecodeTCP(short[:]); err == nil {
		t.Error("bad data offset accepted")
	}
}

func TestUDPRoundTrip(t *testing.T) {
	u := UDP{SrcPort: 2049, DstPort: PortDNS, Length: 128}
	var buf [UDPHeaderLen]byte
	if _, err := u.Encode(buf[:]); err != nil {
		t.Fatal(err)
	}
	got, n, err := DecodeUDP(buf[:])
	if err != nil || n != UDPHeaderLen || got != u {
		t.Fatalf("round trip: %+v, %d, %v", got, n, err)
	}
}

func TestUDPErrors(t *testing.T) {
	var buf [UDPHeaderLen]byte
	bad := UDP{Length: 4}
	if _, err := bad.Encode(buf[:]); !errors.Is(err, ErrBadField) {
		t.Error("short udp length accepted")
	}
	if _, _, err := DecodeUDP(buf[:4]); !errors.Is(err, ErrTruncated) {
		t.Error("short decode accepted")
	}
	// Zero length field decodes as invalid.
	if _, _, err := DecodeUDP(make([]byte, UDPHeaderLen)); err == nil {
		t.Error("zero udp length accepted")
	}
}

// DecodeICMP parses an ICMP header from buf: the inverse the round trip
// below needs, which no shipped reader does.
func DecodeICMP(buf []byte) (ICMP, int, error) {
	if len(buf) < ICMPHeaderLen {
		return ICMP{}, 0, ErrTruncated
	}
	var c ICMP
	c.Type = buf[0]
	c.Code = buf[1]
	c.Rest = binary.BigEndian.Uint32(buf[4:])
	return c, ICMPHeaderLen, nil
}

func TestICMPRoundTrip(t *testing.T) {
	c := ICMP{Type: 8, Code: 0, Rest: 0x00010002} // echo request
	var buf [ICMPHeaderLen]byte
	if _, err := c.Encode(buf[:]); err != nil {
		t.Fatal(err)
	}
	if Checksum(buf[:]) != 0 {
		t.Fatal("ICMP checksum does not verify")
	}
	got, _, err := DecodeICMP(buf[:])
	if err != nil || got != c {
		t.Fatalf("round trip: %+v, %v", got, err)
	}
	if _, _, err := DecodeICMP(buf[:4]); !errors.Is(err, ErrTruncated) {
		t.Error("short decode accepted")
	}
}
