package arts

import (
	"sort"
	"testing"

	"netsample/internal/packet"
	"netsample/internal/trace"
)

func tcpPkt(src, dst packet.Addr, sport, dport uint16, size uint16) trace.Packet {
	return trace.Packet{Size: size, Protocol: packet.ProtoTCP,
		Src: src, Dst: dst, SrcPort: sport, DstPort: dport}
}

// MatrixEntry is one row of a matrix read in Pairs order.
type MatrixEntry struct {
	Pair     NetPair
	Counters Counters
}

// Pairs reads the matrix by descending packet count, ties broken by key
// bytes: one fixed order for the tests to index.
func (m *SrcDstMatrix) Pairs() []MatrixEntry {
	out := make([]MatrixEntry, 0, len(m.M))
	for k, v := range m.M {
		out = append(out, MatrixEntry{Pair: k, Counters: v})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Counters.Packets != out[j].Counters.Packets {
			return out[i].Counters.Packets > out[j].Counters.Packets
		}
		if a, b := out[i].Pair.Src.Uint32(), out[j].Pair.Src.Uint32(); a != b {
			return a < b
		}
		return out[i].Pair.Dst.Uint32() < out[j].Pair.Dst.Uint32()
	})
	return out
}

// Finish flushes the in-progress second so Bins holds every second
// recorded.
func (h *RateHistogram) Finish() {
	if h.started {
		h.flushSecond()
		h.started = false
	}
}

func TestSrcDstMatrixAggregatesByNetwork(t *testing.T) {
	m := NewSrcDstMatrix()
	// Two hosts on the same class B source network to the same class A
	// destination network must share a cell.
	m.Record(tcpPkt(packet.Addr{132, 249, 1, 1}, packet.Addr{18, 1, 2, 3}, 1024, 23, 100), 1)
	m.Record(tcpPkt(packet.Addr{132, 249, 9, 9}, packet.Addr{18, 9, 9, 9}, 1025, 23, 200), 1)
	if len(m.M) != 1 {
		t.Fatalf("cells = %d, want 1", len(m.M))
	}
	key := NetPair{Src: packet.Addr{132, 249, 0, 0}, Dst: packet.Addr{18, 0, 0, 0}}
	c, ok := m.M[key]
	if !ok {
		t.Fatalf("expected key %v, have %v", key, m.M)
	}
	if c.Packets != 2 || c.Bytes != 300 {
		t.Fatalf("counters = %+v", c)
	}
}

func TestSrcDstMatrixWeight(t *testing.T) {
	m := NewSrcDstMatrix()
	m.Record(tcpPkt(packet.Addr{10, 0, 0, 1}, packet.Addr{11, 0, 0, 1}, 1, 2, 552), 50)
	e := m.Pairs()[0]
	if e.Counters.Packets != 50 || e.Counters.Bytes != 50*552 {
		t.Fatalf("weighted counters = %+v", e.Counters)
	}
}

func TestSrcDstMatrixPairsSorted(t *testing.T) {
	m := NewSrcDstMatrix()
	a := tcpPkt(packet.Addr{10, 0, 0, 1}, packet.Addr{11, 0, 0, 1}, 1, 2, 100)
	b := tcpPkt(packet.Addr{12, 0, 0, 1}, packet.Addr{13, 0, 0, 1}, 1, 2, 100)
	m.Record(a, 1)
	m.Record(b, 1)
	m.Record(b, 1)
	pairs := m.Pairs()
	if pairs[0].Counters.Packets != 2 || pairs[1].Counters.Packets != 1 {
		t.Fatalf("pairs not sorted by volume: %+v", pairs)
	}
}

func TestPortDistribution(t *testing.T) {
	d := NewPortDistribution()
	d.Record(tcpPkt(packet.Addr{10, 0, 0, 1}, packet.Addr{11, 0, 0, 1}, 1024, packet.PortTelnet, 41), 1)
	d.Record(tcpPkt(packet.Addr{10, 0, 0, 1}, packet.Addr{11, 0, 0, 1}, packet.PortNNTP, 2000, 552), 1)
	d.Record(tcpPkt(packet.Addr{10, 0, 0, 1}, packet.Addr{11, 0, 0, 1}, 5000, 6000, 99), 1)
	icmp := trace.Packet{Size: 28, Protocol: packet.ProtoICMP}
	d.Record(icmp, 1) // not TCP/UDP: ignored
	if c := d.Ports[packet.PortTelnet]; c.Packets != 1 || c.Bytes != 41 {
		t.Errorf("telnet = %+v", c)
	}
	if c := d.Ports[packet.PortNNTP]; c.Packets != 1 {
		t.Errorf("nntp (src side) = %+v", c)
	}
	if c := d.Ports[0]; c.Packets != 1 || c.Bytes != 99 {
		t.Errorf("other = %+v", c)
	}
	if len(d.Ports) != 3 {
		t.Errorf("ports = %v", d.Ports)
	}
}

func TestProtocolDistribution(t *testing.T) {
	d := NewProtocolDistribution()
	d.Record(trace.Packet{Size: 40, Protocol: packet.ProtoTCP}, 1)
	d.Record(trace.Packet{Size: 100, Protocol: packet.ProtoUDP}, 2)
	d.Record(trace.Packet{Size: 28, Protocol: packet.ProtoICMP}, 1)
	if len(d.Protos) != 3 {
		t.Fatalf("protos = %v", d.Protos)
	}
	if c := d.Protos[packet.ProtoUDP]; c.Packets != 2 || c.Bytes != 200 {
		t.Fatalf("udp = %+v", c)
	}
	if d.Protos[packet.ProtoICMP].Packets != 1 {
		t.Fatalf("icmp = %+v", d.Protos[packet.ProtoICMP])
	}
}

func TestLengthHistogram(t *testing.T) {
	h := NewLengthHistogram()
	h.Record(trace.Packet{Size: 0}, 1)
	h.Record(trace.Packet{Size: 49}, 1)
	h.Record(trace.Packet{Size: 50}, 1)
	h.Record(trace.Packet{Size: 552}, 2)
	h.Record(trace.Packet{Size: 1500}, 1)
	if h.Bins[0] != 2 {
		t.Errorf("bin 0 = %d", h.Bins[0])
	}
	if h.Bins[1] != 1 {
		t.Errorf("bin 1 = %d", h.Bins[1])
	}
	if h.Bins[11] != 2 { // 552/50 = 11
		t.Errorf("bin 11 = %d", h.Bins[11])
	}
	if h.Bins[LengthHistogramBins-1] != 1 { // 1500 overflows into last
		t.Errorf("last bin = %d", h.Bins[LengthHistogramBins-1])
	}
	var total uint64
	for _, v := range h.Bins {
		total += v
	}
	if total != 6 {
		t.Errorf("total = %d", total)
	}
}

func TestRateHistogram(t *testing.T) {
	h := NewRateHistogram()
	// 30 packets in second 0, 3 in second 2 (second 1 empty).
	for i := 0; i < 30; i++ {
		h.Record(trace.Packet{Time: int64(i) * 1000}, 1)
	}
	for i := 0; i < 3; i++ {
		h.Record(trace.Packet{Time: 2_000_000 + int64(i)}, 1)
	}
	h.Finish()
	if h.Bins[1] != 1 { // 30 pps → bin [20,40)
		t.Errorf("bin 1 = %d", h.Bins[1])
	}
	if h.Bins[0] != 2 { // 0 pps (empty second) and 3 pps
		t.Errorf("bin 0 = %d", h.Bins[0])
	}
}

func TestVolume(t *testing.T) {
	v := NewVolume("outbound-volume")
	v.Record(trace.Packet{Size: 100}, 3)
	if v.C.Packets != 3 || v.C.Bytes != 300 {
		t.Fatalf("volume = %+v", v.C)
	}
	if v.Name() != "outbound-volume" {
		t.Fatalf("name = %q", v.Name())
	}
}

func TestObjectSetProfiles(t *testing.T) {
	t1 := NewObjectSet(T1)
	t3 := NewObjectSet(T3)
	if len(t1.Objects()) != 7 {
		t.Errorf("T1 objects = %d, want 7", len(t1.Objects()))
	}
	if len(t3.Objects()) != 3 {
		t.Errorf("T3 objects = %d, want 3", len(t3.Objects()))
	}
	if t3.Lengths != nil || t3.Rates != nil {
		t.Error("T3 should not carry T1-only objects")
	}
	if len(SupportedObjectNames(T1)) != 7 || len(SupportedObjectNames(T3)) != 3 {
		t.Error("supported-object names wrong")
	}
	if T1.String() != "T1" || T3.String() != "T3" {
		t.Error("backbone names wrong")
	}
}

// TestObjectSetRecordAndReset: Record reaches every object of the set,
// and a set starts from zero — there is no reset in place: a node that
// wants a fresh interval builds a fresh set.
func TestObjectSetRecordAndReset(t *testing.T) {
	s := NewObjectSet(T1)
	p := tcpPkt(packet.Addr{132, 249, 1, 1}, packet.Addr{18, 1, 1, 1}, 1024, 23, 41)
	s.Record(p, 1)
	s.Record(p, 1)
	if s.TotalPackets() != 2 {
		t.Fatalf("total = %d", s.TotalPackets())
	}
	if s.Outbound.C.Packets != 2 || s.Transit.C.Packets != 2 || s.Lengths.Bins[0] != 2 || len(s.Matrix.M) != 1 {
		t.Fatalf("objects missed a packet: outbound %+v transit %+v lengths[0] %d matrix %d cells",
			s.Outbound.C, s.Transit.C, s.Lengths.Bins[0], len(s.Matrix.M))
	}
	if fresh := NewObjectSet(T1); fresh.TotalPackets() != 0 || len(fresh.Matrix.M) != 0 {
		t.Fatal("a new set does not start empty")
	}
}

// TestObjectSetRecordNoListRebuild pins Record at zero allocations for
// a packet whose keys the objects already hold: the Table 1-order list
// is built once by NewObjectSet, not per packet.
func TestObjectSetRecordNoListRebuild(t *testing.T) {
	p := tcpPkt(packet.Addr{132, 249, 1, 1}, packet.Addr{18, 1, 1, 1}, 1024, 23, 41)
	for _, b := range []Backbone{T1, T3} {
		s := NewObjectSet(b)
		s.Record(p, 1)
		if allocs := testing.AllocsPerRun(100, func() { s.Record(p, 1) }); allocs != 0 {
			t.Errorf("%s: Record allocates %v per packet, want 0", b, allocs)
		}
		// Objects hands out its own slice, in Table 1 order.
		objs := s.Objects()
		for i, name := range SupportedObjectNames(b) {
			if objs[i].Name() != name {
				t.Errorf("%s: object %d is %s, want %s", b, i, objs[i].Name(), name)
			}
		}
		clear(objs)
		s.Record(p, 1)
		if s.TotalPackets() != 102+1 {
			t.Errorf("%s: total = %d after clearing the caller's Objects() slice", b, s.TotalPackets())
		}
	}
}

// TestObjectSetHandAssembled checks a set built without NewObjectSet:
// Record and Objects work from the fields alone.
func TestObjectSetHandAssembled(t *testing.T) {
	if n := len((&ObjectSet{}).Objects()); n != 7 {
		t.Errorf("zero-value set lists %d objects, want 7 (T1)", n)
	}
	s := &ObjectSet{Backbone: T3, Matrix: NewSrcDstMatrix(), Ports: NewPortDistribution(), Protocols: NewProtocolDistribution()}
	p := tcpPkt(packet.Addr{132, 249, 1, 1}, packet.Addr{18, 1, 1, 1}, 1024, 23, 41)
	s.Record(p, 3)
	if s.TotalPackets() != 3 || len(s.Matrix.M) != 1 || len(s.Objects()) != 3 {
		t.Fatalf("hand-assembled T3 set: total %d, matrix %d cells, %d objects", s.TotalPackets(), len(s.Matrix.M), len(s.Objects()))
	}
}
