package packet

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestChecksumRFC1071Example(t *testing.T) {
	// The worked example from RFC 1071 §3: words 0001 f203 f4f5 f6f7
	// sum to 2ddf0 → fold → ddf2 → complement → 220d.
	data := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := Checksum(data); got != 0x220d {
		t.Fatalf("checksum = %#04x, want 0x220d", got)
	}
}

func TestChecksumOddLength(t *testing.T) {
	// Trailing byte is padded with zero on the right.
	data := []byte{0x12, 0x34, 0x56}
	want := ^uint16(0x1234 + 0x5600)
	if got := Checksum(data); got != want {
		t.Fatalf("checksum = %#04x, want %#04x", got, want)
	}
}

func TestChecksumEmpty(t *testing.T) {
	if got := Checksum(nil); got != 0xffff {
		t.Fatalf("checksum of empty = %#04x", got)
	}
}

func TestChecksumVerifiesToZero(t *testing.T) {
	// Appending the checksum to the data makes the total checksum 0.
	f := func(data []byte) bool {
		if len(data)%2 != 0 {
			data = append(data, 0)
		}
		c := Checksum(data)
		withSum := append(append([]byte(nil), data...), byte(c>>8), byte(c))
		return Checksum(withSum) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAddrString(t *testing.T) {
	a := Addr{132, 249, 20, 1}
	if a.String() != "132.249.20.1" {
		t.Fatalf("String = %q", a.String())
	}
}

// TestAddrStringMatchesSprintf holds the strconv rendering to the
// Sprintf spelling it replaced, for every value of every octet, and
// pins String at the one allocation of the returned string and AppendTo,
// which String calls, at none when dst has room.
func TestAddrStringMatchesSprintf(t *testing.T) {
	for pos := 0; pos < 4; pos++ {
		for v := 0; v < 256; v++ {
			a := Addr{7, 77, 177, 250}
			a[pos] = byte(v)
			if got, want := a.String(), fmt.Sprintf("%d.%d.%d.%d", a[0], a[1], a[2], a[3]); got != want {
				t.Fatalf("String = %q, want %q", got, want)
			}
		}
	}
	a := Addr{255, 255, 255, 255}
	if allocs := testing.AllocsPerRun(100, func() { _ = a.String() }); allocs > 1 {
		t.Errorf("String allocates %v times, want at most 1", allocs)
	}
	buf := make([]byte, 0, 15)
	if allocs := testing.AllocsPerRun(100, func() { buf = a.AppendTo(buf[:0]) }); allocs != 0 {
		t.Errorf("AppendTo allocates %v times with room in dst, want 0", allocs)
	}
}

func TestAddrUint32RoundTrip(t *testing.T) {
	f := func(v uint32) bool { return AddrFrom(v).Uint32() == v }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNetworkNumberClassful(t *testing.T) {
	cases := []struct {
		addr  Addr
		class byte
		net   Addr
	}{
		{Addr{10, 1, 2, 3}, 'A', Addr{10, 0, 0, 0}},
		{Addr{127, 0, 0, 1}, 'A', Addr{127, 0, 0, 0}},
		{Addr{132, 249, 20, 1}, 'B', Addr{132, 249, 0, 0}}, // SDSC's class B
		{Addr{191, 255, 1, 2}, 'B', Addr{191, 255, 0, 0}},
		{Addr{192, 31, 7, 130}, 'C', Addr{192, 31, 7, 0}},
		{Addr{223, 0, 0, 9}, 'C', Addr{223, 0, 0, 0}},
		{Addr{224, 0, 0, 5}, 'D', Addr{224, 0, 0, 5}},
		{Addr{250, 9, 9, 9}, 'E', Addr{250, 9, 9, 9}},
	}
	for _, c := range cases {
		if got := c.addr.Class(); got != c.class {
			t.Errorf("%v class = %c, want %c", c.addr, got, c.class)
		}
		if got := c.addr.NetworkNumber(); got != c.net {
			t.Errorf("%v network = %v, want %v", c.addr, got, c.net)
		}
	}
}

func TestProtocolString(t *testing.T) {
	if ProtoTCP.String() != "TCP" || ProtoUDP.String() != "UDP" || ProtoICMP.String() != "ICMP" {
		t.Error("well-known protocol names wrong")
	}
	if Protocol(200).String() != "proto-200" {
		t.Errorf("unknown protocol = %q", Protocol(200).String())
	}
}

func TestPortName(t *testing.T) {
	if PortName(PortTelnet) != "telnet" || PortName(PortFTPData) != "ftp-data" {
		t.Error("well-known port names wrong")
	}
	if PortName(31337) != "other" {
		t.Error("unknown port should be other")
	}
}
