package trace

import (
	"bytes"
	"io"
	"slices"
	"testing"
	"unsafe"

	"netsample/internal/dist"
	"netsample/internal/packet"
)

// identityPackets returns the table the identity tests walk: every
// field at its extremes, each field alone set (a misplaced offset shows
// as a value in the wrong field), and n seeded-random packets.
func identityPackets(n int) []Packet {
	pkts := []Packet{
		{},
		{Time: -1 << 63, Size: 0xffff, Protocol: 0xff, TCPFlags: 0xff,
			Src: packet.Addr{255, 255, 255, 255}, Dst: packet.Addr{255, 255, 255, 255},
			SrcPort: 0xffff, DstPort: 0xffff},
		{Time: 1<<63 - 1},
		{Time: 0x0102030405060708},
		{Size: 0x090a},
		{Protocol: 0x0b},
		{TCPFlags: 0x0c},
		{Src: packet.Addr{0x0d, 0x0e, 0x0f, 0x10}},
		{Dst: packet.Addr{0x11, 0x12, 0x13, 0x14}},
		{SrcPort: 0x1516},
		{DstPort: 0x1718},
	}
	r := dist.NewRNG(1993)
	for i := 0; i < n; i++ {
		pkts = append(pkts, Packet{
			Time:     int64(r.Uint64()),
			Size:     uint16(r.Uint64()),
			Protocol: packet.Protocol(r.Uint64()),
			TCPFlags: uint8(r.Uint64()),
			Src:      packet.AddrFrom(uint32(r.Uint64())),
			Dst:      packet.AddrFrom(uint32(r.Uint64())),
			SrcPort:  uint16(r.Uint64()),
			DstPort:  uint16(r.Uint64()),
		})
	}
	return pkts
}

// alignedCopy returns data copied to a Packet-aligned address plus off.
func alignedCopy(data []byte, off int) []byte {
	words := make([]uint64, (len(data)+off)/8+1)
	buf := unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), len(words)*8)
	return buf[off : off+copy(buf[off:], data)]
}

// TestLayoutIdentity pins both directions of the identity against the
// portable codec: a packet's memory is its encoded record, and a
// record's bytes are its decoded packet.
func TestLayoutIdentity(t *testing.T) {
	if !nativeLE {
		t.Skip("big-endian: the views are never taken")
	}
	pkts := identityPackets(1000)
	encoded := make([]byte, len(pkts)*RecordLen)
	for i, p := range pkts {
		encodeRecord((*[RecordLen]byte)(encoded[i*RecordLen:]), p)
	}

	raw, ok := packetsAsRecords(pkts)
	if !ok || !bytes.Equal(raw, encoded) {
		t.Fatalf("packets-as-records view (ok=%v) differs from encodeRecord", ok)
	}
	if cap(raw) != len(raw) {
		t.Errorf("record view has cap %d beyond len %d", cap(raw), len(raw))
	}

	region := alignedCopy(encoded, 0)
	view, ok := recordsAsPackets(region)
	decoded := make([]Packet, len(pkts))
	DecodeRecords(decoded, region)
	if !ok || !slices.Equal(view, decoded) || !slices.Equal(view, pkts) {
		t.Fatalf("records-as-packets view (ok=%v) differs from DecodeRecords", ok)
	}
	if cap(view) != len(view) {
		t.Errorf("packet view has cap %d beyond len %d", cap(view), len(view))
	}
	if unsafe.Pointer(&view[0]) != unsafe.Pointer(&region[0]) {
		t.Error("packet view does not alias its region")
	}

	// A trailing partial record is not part of the view; a base off the
	// Packet alignment is refused; empty inputs are empty views.
	if v, ok := recordsAsPackets(region[:2*RecordLen+5]); !ok || len(v) != 2 {
		t.Errorf("partial tail: %d packets, ok=%v", len(v), ok)
	}
	if _, ok := recordsAsPackets(alignedCopy(encoded, 1)); ok {
		t.Error("misaligned region accepted as packets")
	}
	if v, ok := recordsAsPackets(nil); !ok || len(v) != 0 {
		t.Errorf("nil region: %d packets, ok=%v", len(v), ok)
	}
	if b, ok := packetsAsRecords(nil); !ok || len(b) != 0 {
		t.Errorf("nil packets: %d bytes, ok=%v", len(b), ok)
	}
}

// TestMapReaderTraceIsTheRegion checks Trace() over an aligned region
// is that region — same address, no copy — and over the same bytes one
// byte off alignment is an equal, separate copy: the fallback a
// big-endian build always takes, reached here without a switch.
func TestMapReaderTraceIsTheRegion(t *testing.T) {
	want := &Trace{ClockUS: 400, Packets: identityPackets(100)}
	data := encodeTrace(t, want)
	for _, off := range []int{0, 1} {
		region := alignedCopy(data, off)
		m, err := NewMapReaderBytes(region)
		if err != nil {
			t.Fatal(err)
		}
		got, err := m.Trace()
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.Packets, want.Packets) || got.ClockUS != want.ClockUS {
			t.Fatalf("offset %d: Trace() differs from the written trace", off)
		}
		aliased := unsafe.Pointer(&got.Packets[0]) == unsafe.Pointer(&region[HeaderLen])
		if wantAlias := off == 0 && nativeLE; aliased != wantAlias {
			t.Errorf("offset %d: Trace() aliases region = %v, want %v", off, aliased, wantAlias)
		}
		if cap(got.Packets) != len(got.Packets) {
			t.Errorf("offset %d: Packets has cap %d beyond len %d", off, cap(got.Packets), len(got.Packets))
		}
	}
}

// TestPortablePathsMatchViews runs the paths only a big-endian build
// would take directly, against the view paths on the same packets:
// encodeFresh under Write and Replay, and DecodeRecords under Trace.
func TestPortablePathsMatchViews(t *testing.T) {
	tr := &Trace{Packets: identityPackets(5000)}
	data := encodeTrace(t, tr)
	if !bytes.Equal(encodeFresh(tr.Packets), data[HeaderLen:]) {
		t.Error("encodeFresh differs from Write's record region")
	}

	decoded := make([]Packet, len(tr.Packets))
	if n := DecodeRecords(decoded, data[HeaderLen:]); n != len(decoded) {
		t.Fatalf("DecodeRecords: n=%d", n)
	}
	got, err := decode(data)
	if err != nil || !slices.Equal(got.Packets, decoded) || !slices.Equal(got.Packets, tr.Packets) {
		t.Errorf("Trace differs from DecodeRecords over the same bytes (err=%v)", err)
	}

	r := tr.Replay()
	for off := 0; ; {
		raw, n, err := r.NextRawBatch(7)
		if err == io.EOF {
			if off != len(tr.Packets) {
				t.Fatalf("replayed %d of %d records", off, len(tr.Packets))
			}
			break
		}
		if err != nil || len(raw) != n*RecordLen || cap(raw) != len(raw) {
			t.Fatalf("window at %d: n=%d len=%d cap=%d err=%v", off, n, len(raw), cap(raw), err)
		}
		if !bytes.Equal(raw, encodeFresh(tr.Packets[off:off+n])) {
			t.Fatalf("window at %d differs from its encoding", off)
		}
		off += n
	}
	if raw, n, err := r.NextRawBatch(0); len(raw) != 0 || n != 0 || err != io.EOF {
		t.Errorf("exhausted replayer: n=%d err=%v", n, err)
	}
	r.Rewind()
	if raw, n, err := r.NextRawBatch(-1); len(raw) != 0 || n != 0 || err != nil {
		t.Errorf("non-positive request: n=%d err=%v", n, err)
	}
}
