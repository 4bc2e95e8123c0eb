package nsfnet

import (
	"slices"
	"testing"

	"netsample/internal/core"
	"netsample/internal/packet"
	"netsample/internal/trace"
)

func TestProcessorAcceptsUnderLoad(t *testing.T) {
	p := NewProcessor(1000, 10) // 1 ms service
	for i := 0; i < 100; i++ {
		if !p.Offer(int64(i) * 2000) { // one packet every 2 ms
			t.Fatalf("packet %d dropped under light load", i)
		}
	}
	if p.Dropped() != 0 || p.Accepted() != 100 {
		t.Fatalf("accepted=%d dropped=%d", p.Accepted(), p.Dropped())
	}
}

func TestProcessorDropsOverload(t *testing.T) {
	p := NewProcessor(1000, 5) // 1 ms service, 5-packet buffer
	drops := 0
	for i := 0; i < 100; i++ {
		if !p.Offer(int64(i) * 100) { // one packet every 0.1 ms: 10x overload
			drops++
		}
	}
	if drops == 0 {
		t.Fatal("no drops under 10x overload")
	}
	// Steady state: ~1 accepted per ms over ~10 ms = ~10-15 accepted.
	if p.Accepted() > 30 {
		t.Fatalf("accepted %d, expected heavy loss", p.Accepted())
	}
	if p.Offered() != 100 || p.Accepted()+p.Dropped() != 100 {
		t.Fatal("counter conservation violated")
	}
}

func TestProcessorRecoversAfterIdle(t *testing.T) {
	p := NewProcessor(1000, 2)
	// Saturate.
	for i := 0; i < 10; i++ {
		p.Offer(int64(i))
	}
	// Long idle, then a new packet must be accepted.
	if !p.Offer(1_000_000_000) {
		t.Fatal("packet dropped after long idle")
	}
}

func TestProcessorDefensiveConstruction(t *testing.T) {
	p := NewProcessor(-5, 0) // clamped to valid minimums
	if !p.Offer(0) {
		t.Fatal("first packet dropped")
	}
}

func mkBurstTrace(n int, gapUS int64) *trace.Trace {
	tr := &trace.Trace{}
	for i := 0; i < n; i++ {
		tr.Packets = append(tr.Packets, trace.Packet{
			Time: int64(i) * gapUS, Size: 552, Protocol: packet.ProtoTCP,
			Src: packet.Addr{132, 249, 1, 1}, Dst: packet.Addr{18, 0, 0, byte(i)},
			SrcPort: 1024, DstPort: 20,
		})
	}
	return tr
}

func TestT1NodeSNMPAlwaysExact(t *testing.T) {
	// Overloaded stats processor: SNMP exact, categorization short.
	n := NewT1Node(100, 8, 0) // 100 pps capacity
	tr := mkBurstTrace(5000, 500)
	n.ProcessTrace(tr)
	if n.SNMP.InPackets != 5000 {
		t.Fatalf("SNMP = %d, want 5000", n.SNMP.InPackets)
	}
	if n.SNMP.InOctets != 5000*552 {
		t.Fatalf("octets = %d", n.SNMP.InOctets)
	}
	cat := n.CategorizedPackets()
	if cat >= 5000 {
		t.Fatalf("categorized %d, expected shortfall under overload", cat)
	}
	if cat == 0 {
		t.Fatal("categorized nothing")
	}
}

func TestT1NodeKeepsUpUnderCapacity(t *testing.T) {
	n := NewT1Node(10_000, 64, 0)
	tr := mkBurstTrace(2000, 500) // 2000 pps < 10k capacity
	n.ProcessTrace(tr)
	if n.CategorizedPackets() != 2000 {
		t.Fatalf("categorized %d, want all 2000", n.CategorizedPackets())
	}
}

func TestT1NodeSamplingRestoresIntegrity(t *testing.T) {
	// The September 1991 fix: overloaded without sampling, accurate
	// (in scaled expectation) with 1-in-50 sampling.
	tr := mkBurstTrace(50_000, 500) // 2000 pps for 25 s
	plain := NewT1Node(400, 16, 0)  // 400 pps capacity: 5x overload
	plain.ProcessTrace(tr)
	plainShortfall := float64(plain.SNMP.InPackets-plain.CategorizedPackets()) / 50000

	sampled := NewT1Node(400, 16, 50)
	sampled.ProcessTrace(tr)
	cat := float64(sampled.CategorizedPackets())
	err := cat - 50000
	if err < 0 {
		err = -err
	}
	if plainShortfall < 0.3 {
		t.Fatalf("plain shortfall %v, expected severe undercount", plainShortfall)
	}
	if err/50000 > 0.05 {
		t.Fatalf("sampled estimate %v vs 50000: error too large", cat)
	}
}

// selectedBy feeds tr one packet at a time and returns the indices the
// statistics path was offered, read off the processor's own counter.
func selectedBy(tr *trace.Trace, process func(trace.Packet), proc *Processor) []int {
	var got []int
	for i, p := range tr.Packets {
		before := proc.Offered()
		process(p)
		if proc.Offered() != before {
			got = append(got, i)
		}
	}
	return got
}

func TestNodesSelectAsSystematicCount(t *testing.T) {
	// The node model takes its selection from online.Systematic at
	// offset k-1: the k-th, 2k-th, ... packet, index for index the batch
	// core.SystematicCount{K: k, Offset: k-1}; sampleK 0 and 1 offer
	// every packet.
	tr := mkBurstTrace(1003, 500)
	for _, sampleK := range []int{0, 1, 2, 7, 50, 1003, 2000} {
		k := sampleK
		if k < 1 {
			k = 1
		}
		want, err := core.SystematicCount{K: k, Offset: k - 1}.Select(tr, nil)
		if err != nil {
			t.Fatal(err)
		}
		t1 := NewT1Node(1e9, 64, sampleK)
		if t1.K() != k {
			t.Fatalf("sampleK %d: T1Node.K() = %d, want %d", sampleK, t1.K(), k)
		}
		if got := selectedBy(tr, t1.Process, t1.Proc); !slices.Equal(got, want) {
			t.Errorf("sampleK %d: T1Node selected %d packets, not SystematicCount's %d",
				sampleK, len(got), len(want))
		}
		if got := t1.CategorizedPackets(); got != uint64(len(want)*k) {
			t.Errorf("sampleK %d: categorized %d, want %d selections of weight %d", sampleK, got, len(want), k)
		}
	}
}

func TestT1NodeSetGranularity(t *testing.T) {
	// A packet is recorded with the k in force when it was selected, so
	// the scaled total stays the packet count across a change.
	n := NewT1Node(1e9, 64, 4)
	tr := mkBurstTrace(40, 500)
	for _, p := range tr.Packets[:20] { // 5 selections of weight 4
		n.Process(p)
	}
	if err := n.SetGranularity(10); err != nil {
		t.Fatal(err)
	}
	if n.K() != 10 {
		t.Fatalf("K() = %d after SetGranularity(10)", n.K())
	}
	for _, p := range tr.Packets[20:] { // re-anchored: 2 selections of weight 10
		n.Process(p)
	}
	if got := n.CategorizedPackets(); got != 40 {
		t.Fatalf("categorized %d across a granularity change, want 40", got)
	}
	if err := n.SetGranularity(0); err == nil {
		t.Fatal("SetGranularity(0) accepted")
	}
}
