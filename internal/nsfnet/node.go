package nsfnet

import (
	"errors"

	"netsample/internal/arts"
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

// everyKth is the firmware selection rule both node models run: the
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
// a dedicated statistics processor feeding NNStat objects. At
// granularity 1 every packet is offered to the processor (the
// pre-September-1991 configuration); at k > 1 only every k-th packet is
// offered, recorded with weight k (the sampling deployment).
type T1Node struct {
	SNMP    SNMPCounters
	Objects *arts.ObjectSet
	Proc    *Processor

	sys *online.Systematic
}

// NewT1Node builds a T1 NSS with the given statistics-processor capacity
// (packets/second) and buffer (packets). sampleK <= 1 disables sampling.
func NewT1Node(capacityPPS float64, buffer, sampleK int) *T1Node {
	return &T1Node{
		Objects: arts.NewObjectSet(arts.T1),
		Proc:    NewProcessor(capacityPPS, buffer),
		sys:     everyKth(sampleK),
	}
}

// K returns the sampling granularity in force.
func (n *T1Node) K() int { return n.sys.K() }

// SetGranularity changes the sampling granularity mid-stream; the
// schedule re-anchors at the change (online.Systematic.SetGranularity).
func (n *T1Node) SetGranularity(k int) error { return n.sys.SetGranularity(k) }

// Process forwards one packet through the node. Packets must arrive in
// time order. A categorized packet is recorded with the granularity in
// force when it was selected, so scaled counts stay unbiased across
// granularity changes.
func (n *T1Node) Process(p trace.Packet) {
	n.SNMP.record(p)
	if n.sys.Offer(p.Time) && n.Proc.Offer(p.Time) {
		n.Objects.Record(p, uint64(n.sys.K()))
	}
}

// ProcessTrace runs a whole trace through the node.
func (n *T1Node) ProcessTrace(tr *trace.Trace) {
	for _, p := range tr.Packets {
		n.Process(p)
	}
}

// CategorizedPackets reports the (scaled) packet total the NNStat
// objects saw — the quantity that fell short of SNMP in Figure 1.
func (n *T1Node) CategorizedPackets() uint64 { return n.Objects.TotalPackets() }

// T3Subsystem is one intelligent interface card of a T3 node: its own
// exact SNMP counters and the firmware's systematic 1-in-K selection.
type T3Subsystem struct {
	Name string
	SNMP SNMPCounters
	sys  *online.Systematic
}

// T3Node models a T3 backbone node: several subsystems forwarding in
// parallel, each selecting every K-th packet in firmware and passing it
// to the main CPU, where the ARTS software categorizes it (with scale-up
// weight K). The main CPU is itself a finite processor, but the sampled
// stream is a factor K lighter, which is the architecture's point.
type T3Node struct {
	Subsystems []*T3Subsystem
	Objects    *arts.ObjectSet
	MainCPU    *Processor
}

// ErrNoSubsystem reports a packet routed to a nonexistent subsystem.
var ErrNoSubsystem = errors.New("nsfnet: subsystem index out of range")

// NewT3Node builds a T3 node with the named subsystems, each sampling
// 1-in-k, and a main CPU of the given categorization capacity.
func NewT3Node(subsystems []string, k int, mainCapacityPPS float64, buffer int) *T3Node {
	n := &T3Node{
		Objects: arts.NewObjectSet(arts.T3),
		MainCPU: NewProcessor(mainCapacityPPS, buffer),
	}
	for _, name := range subsystems {
		n.Subsystems = append(n.Subsystems, &T3Subsystem{Name: name, sys: everyKth(k)})
	}
	return n
}

// Process forwards one packet arriving on subsystem index sub.
func (n *T3Node) Process(sub int, p trace.Packet) error {
	if sub < 0 || sub >= len(n.Subsystems) {
		return ErrNoSubsystem
	}
	s := n.Subsystems[sub]
	s.SNMP.record(p)
	// Firmware forwards the selected header to the main CPU.
	if s.sys.Offer(p.Time) && n.MainCPU.Offer(p.Time) {
		n.Objects.Record(p, uint64(s.sys.K()))
	}
	return nil
}

// ProcessTrace distributes a trace across subsystems round-robin by
// source network, approximating the per-interface split of real nodes.
func (n *T3Node) ProcessTrace(tr *trace.Trace) error {
	m := len(n.Subsystems)
	if m == 0 {
		return ErrNoSubsystem
	}
	for _, p := range tr.Packets {
		// FNV-1a over the network number: a plain modulus would map all
		// classful networks (multiples of 256 or 65536) onto one card.
		net := p.Src.NetworkNumber()
		h := uint32(2166136261)
		for _, b := range net {
			h = (h ^ uint32(b)) * 16777619
		}
		if err := n.Process(int(h%uint32(m)), p); err != nil {
			return err
		}
	}
	return nil
}

// SNMPTotal sums the subsystems' exact packet counters.
func (n *T3Node) SNMPTotal() uint64 {
	var t uint64
	for _, s := range n.Subsystems {
		t += s.SNMP.InPackets
	}
	return t
}

// CategorizedPackets reports the scaled ARTS packet total.
func (n *T3Node) CategorizedPackets() uint64 { return n.Objects.TotalPackets() }
