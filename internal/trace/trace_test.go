package trace

import (
	"errors"
	"io"
	"slices"
	"testing"
	"time"

	"netsample/internal/packet"
)

func mkTrace(times []int64, sizes []uint16) *Trace {
	t := &Trace{Start: time.Unix(732844800, 0).UTC()} // 23 Mar 1993
	for i := range times {
		t.Packets = append(t.Packets, Packet{
			Time: times[i], Size: sizes[i], Protocol: packet.ProtoTCP,
			Src: packet.Addr{132, 249, 1, byte(i)}, Dst: packet.Addr{128, 9, 0, 1},
			SrcPort: 1024, DstPort: packet.PortTelnet,
		})
	}
	return t
}

func TestValidateOrdered(t *testing.T) {
	tr := mkTrace([]int64{0, 400, 400, 800}, []uint16{40, 40, 552, 40})
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := mkTrace([]int64{400, 0}, []uint16{40, 40})
	if err := bad.Validate(); !errors.Is(err, ErrUnordered) {
		t.Fatalf("unordered accepted: %v", err)
	}
}

func TestValidateClockQuantization(t *testing.T) {
	tr := mkTrace([]int64{0, 400, 800}, []uint16{40, 40, 40})
	tr.ClockUS = 400
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	tr.Packets[1].Time = 500
	tr.Packets = tr.Packets[:2]
	if err := tr.Validate(); err == nil {
		t.Fatal("unquantized timestamp accepted")
	}
}

func TestWindow(t *testing.T) {
	tr := mkTrace([]int64{0, 100, 200, 300, 400}, []uint16{1, 2, 3, 4, 5})
	w := tr.Window(100, 300)
	if w.Len() != 2 || w.Packets[0].Size != 2 || w.Packets[1].Size != 3 {
		t.Fatalf("window wrong: %+v", w.Packets)
	}
	if tr.Window(500, 600).Len() != 0 {
		t.Error("out-of-range window should be empty")
	}
	if tr.Window(0, 500).Len() != 5 {
		t.Error("full window should include all")
	}
}

// TestWindowAppendLeavesParent pins the capacity clip: a window shares
// the parent's packets but an append to it must reallocate, not
// overwrite the parent's next packet (nor fault on a mapped view).
func TestWindowAppendLeavesParent(t *testing.T) {
	tr := mkTrace([]int64{0, 100, 200, 300, 400}, []uint16{1, 2, 3, 4, 5})
	before := slices.Clone(tr.Packets)
	w := tr.Window(100, 300)
	if cap(w.Packets) != len(w.Packets) {
		t.Errorf("window has cap %d beyond len %d", cap(w.Packets), len(w.Packets))
	}
	w.Packets = append(w.Packets, Packet{Time: 250, Size: 999})
	if !slices.Equal(tr.Packets, before) {
		t.Errorf("append to a window rewrote the parent: %+v", tr.Packets)
	}
	if &w.Packets[0] == &tr.Packets[1] {
		t.Error("appended window still aliases the parent")
	}
}

func TestFilter(t *testing.T) {
	tr := mkTrace([]int64{0, 400, 800}, []uint16{40, 552, 40})
	small := tr.Filter(func(p Packet) bool { return p.Size < 100 })
	if small.Len() != 2 {
		t.Fatalf("filtered len = %d", small.Len())
	}
	if small.Packets[1].Time != 800 {
		t.Fatal("wrong packets kept")
	}
	// Original untouched.
	if tr.Len() != 3 {
		t.Fatal("filter mutated source")
	}
}

func TestSizesAndInterarrivals(t *testing.T) {
	tr := mkTrace([]int64{0, 400, 1200}, []uint16{40, 552, 1500})
	s := tr.Sizes()
	if len(s) != 3 || s[0] != 40 || s[2] != 1500 {
		t.Fatalf("sizes = %v", s)
	}
	ia := tr.Interarrivals()
	if len(ia) != 2 || ia[0] != 400 || ia[1] != 800 {
		t.Fatalf("interarrivals = %v", ia)
	}
	if mkTrace([]int64{7}, []uint16{40}).Interarrivals() != nil {
		t.Error("single packet should have no interarrivals")
	}
}

func TestDurationAndBytes(t *testing.T) {
	tr := mkTrace([]int64{0, 2_000_000}, []uint16{100, 200})
	if tr.Duration() != 2*time.Second {
		t.Errorf("duration = %v", tr.Duration())
	}
	if tr.TotalBytes() != 300 {
		t.Errorf("bytes = %d", tr.TotalBytes())
	}
	var empty Trace
	if empty.Duration() != 0 {
		t.Error("empty duration should be 0")
	}
}

func TestPerSecondSeries(t *testing.T) {
	tr := mkTrace(
		[]int64{0, 500_000, 1_200_000, 3_100_000},
		[]uint16{100, 300, 200, 400},
	)
	rows := tr.PerSecondSeries()
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4 (including the empty second 2)", len(rows))
	}
	if rows[0].Packets != 2 || rows[0].Bytes != 400 || rows[0].MeanSize != 200 {
		t.Errorf("second 0: %+v", rows[0])
	}
	if rows[1].Packets != 1 || rows[1].MeanSize != 200 {
		t.Errorf("second 1: %+v", rows[1])
	}
	if rows[2].Packets != 0 || rows[2].MeanSize != 0 {
		t.Errorf("empty second: %+v", rows[2])
	}
	if rows[3].Packets != 1 || rows[3].Bytes != 400 {
		t.Errorf("second 3: %+v", rows[3])
	}
	if (&Trace{}).PerSecondSeries() != nil {
		t.Error("empty trace should have nil series")
	}
}

func TestWireBytesTCP(t *testing.T) {
	p := Packet{Time: 0, Size: 552, Protocol: packet.ProtoTCP,
		TCPFlags: packet.TCPAck, Src: packet.Addr{10, 0, 0, 1},
		Dst: packet.Addr{10, 0, 0, 2}, SrcPort: 1024, DstPort: 23}
	wire, err := p.WireBytes()
	if err != nil {
		t.Fatal(err)
	}
	ip, n, err := packet.DecodeIPv4(wire)
	if err != nil {
		t.Fatal(err)
	}
	if ip.TotalLength != 552 || ip.Protocol != packet.ProtoTCP {
		t.Fatalf("ip = %+v", ip)
	}
	tcp, _, err := packet.DecodeTCP(wire[n:])
	if err != nil {
		t.Fatal(err)
	}
	if tcp.SrcPort != 1024 || tcp.DstPort != 23 || tcp.Flags != packet.TCPAck {
		t.Fatalf("tcp = %+v", tcp)
	}
}

func TestWireBytesUDPAndICMP(t *testing.T) {
	u := Packet{Size: 120, Protocol: packet.ProtoUDP, SrcPort: 2000, DstPort: 53}
	wire, err := u.WireBytes()
	if err != nil {
		t.Fatal(err)
	}
	_, n, err := packet.DecodeIPv4(wire)
	if err != nil {
		t.Fatal(err)
	}
	udp, _, err := packet.DecodeUDP(wire[n:])
	if err != nil {
		t.Fatal(err)
	}
	if udp.Length != 100 {
		t.Fatalf("udp length = %d, want 100", udp.Length)
	}
	// Tiny UDP packet: length clamps to minimum valid.
	tiny := Packet{Size: 20, Protocol: packet.ProtoUDP}
	wire, err = tiny.WireBytes()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := packet.DecodeUDP(wire[packet.IPv4HeaderLen:]); err != nil {
		t.Fatalf("tiny udp invalid: %v", err)
	}
	ic := Packet{Size: 56, Protocol: packet.ProtoICMP}
	if _, err := ic.WireBytes(); err != nil {
		t.Fatal(err)
	}
	other := Packet{Size: 40, Protocol: packet.ProtoOSPF}
	wire, err = other.WireBytes()
	if err != nil {
		t.Fatal(err)
	}
	if len(wire) != packet.IPv4HeaderLen {
		t.Fatalf("non-transport packet length %d", len(wire))
	}
}

// TestReplayerMatchesTrace checks Replay streams the exact packet
// sequence and terminates with io.EOF, and Rewind restarts it.
func TestReplayerMatchesTrace(t *testing.T) {
	tr := &Trace{Packets: []Packet{
		{Time: 1, Size: 40},
		{Time: 2, Size: 552},
		{Time: 5, Size: 1500},
	}}
	r := tr.Replay()
	for pass := 0; pass < 2; pass++ {
		for i, want := range tr.Packets {
			got, err := r.Next()
			if err != nil {
				t.Fatalf("pass %d packet %d: %v", pass, i, err)
			}
			if got != want {
				t.Errorf("pass %d packet %d = %+v, want %+v", pass, i, got, want)
			}
		}
		if _, err := r.Next(); err != io.EOF {
			t.Fatalf("pass %d: end error = %v, want io.EOF", pass, err)
		}
		if _, err := r.Next(); err != io.EOF {
			t.Fatal("EOF is not sticky")
		}
		r.Rewind()
	}
	if _, err := (&Trace{}).Replay().Next(); err != io.EOF {
		t.Errorf("empty trace replay error = %v, want io.EOF", err)
	}
}
