package nsfnet

import (
	"netsample/internal/online"
	"netsample/internal/trace"
)

// SNMPCounters are the interface counters incremented in the mainstream
// of packet forwarding. They are exact regardless of statistics load —
// the property that exposed the NNStat shortfall in Figure 1.
type SNMPCounters struct {
	InPackets uint64
	InOctets  uint64
}

// record counts one forwarded packet.
func (c *SNMPCounters) record(p trace.Packet) {
	c.InPackets++
	c.InOctets += uint64(p.Size)
}

// everyKth is the firmware selection rule the node model runs: the
// k-th, 2k-th, ... packet offered is selected (offset k-1), and k < 1
// means every packet.
func everyKth(k int) *online.Systematic {
	if k < 1 {
		k = 1
	}
	// 0 <= k-1 < k, the only condition NewSystematic checks.
	sys, _ := online.NewSystematic(k, k-1)
	return sys
}

// T1Node models a T1 NSS: exact SNMP counters in the forwarding path and
// a dedicated statistics processor feeding NNStat's categorization. At
// granularity 1 every packet is offered to the processor (the
// pre-September-1991 configuration); at k > 1 only every k-th packet is
// offered, counted with weight k (the sampling deployment).
type T1Node struct {
	SNMP SNMPCounters
	Proc *Processor

	sys         *online.Systematic
	categorized uint64 // Σ k over the packets the processor accepted
}

// NewT1Node builds a T1 NSS with the given statistics-processor capacity
// (packets/second) and buffer (packets). sampleK <= 1 disables sampling.
func NewT1Node(capacityPPS float64, buffer, sampleK int) *T1Node {
	return &T1Node{
		Proc: NewProcessor(capacityPPS, buffer),
		sys:  everyKth(sampleK),
	}
}

// K returns the sampling granularity in force.
func (n *T1Node) K() int { return n.sys.K() }

// SetGranularity changes the sampling granularity mid-stream; the
// schedule re-anchors at the change (online.Systematic.SetGranularity).
func (n *T1Node) SetGranularity(k int) error { return n.sys.SetGranularity(k) }

// Process forwards one packet through the node. Packets must arrive in
// time order. A categorized packet counts with the granularity in force
// when it was selected, so the scaled count stays unbiased across
// granularity changes.
func (n *T1Node) Process(p trace.Packet) {
	n.SNMP.record(p)
	if n.sys.Offer(p.Time) && n.Proc.Offer(p.Time) {
		n.categorized += uint64(n.sys.K())
	}
}

// ProcessTrace runs a whole trace through the node.
func (n *T1Node) ProcessTrace(tr *trace.Trace) {
	for _, p := range tr.Packets {
		n.Process(p)
	}
}

// CategorizedPackets reports the (scaled) packet total NNStat
// categorized — the quantity that fell short of SNMP in Figure 1.
func (n *T1Node) CategorizedPackets() uint64 { return n.categorized }
