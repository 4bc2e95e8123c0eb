package arts

import (
	"netsample/internal/packet"
	"netsample/internal/trace"
)

// --- port distribution -------------------------------------------------------

// PortDistribution tracks TCP/UDP traffic by well-known destination (or,
// if the destination is ephemeral, source) port, aggregating everything
// outside the well-known subset as "other". Non-TCP/UDP packets are not
// counted.
type PortDistribution struct {
	Ports map[uint16]Counters // key: well-known port, 0 = other
}

// NewPortDistribution returns an empty distribution.
func NewPortDistribution() *PortDistribution {
	return &PortDistribution{Ports: make(map[uint16]Counters)}
}

// Name implements Object.
func (d *PortDistribution) Name() string { return "port-distribution" }

// wellKnown reports whether p is in the tracked subset.
func wellKnown(p uint16) bool { return packet.PortName(p) != "other" }

// Record implements Object.
func (d *PortDistribution) Record(p trace.Packet, weight uint64) {
	if p.Protocol != packet.ProtoTCP && p.Protocol != packet.ProtoUDP {
		return
	}
	key := uint16(0)
	switch {
	case wellKnown(p.DstPort):
		key = p.DstPort
	case wellKnown(p.SrcPort):
		key = p.SrcPort
	}
	c := d.Ports[key]
	c.add(p.Size, weight)
	d.Ports[key] = c
}

// --- protocol distribution ----------------------------------------------------

// ProtocolDistribution tracks traffic volume by IP protocol.
type ProtocolDistribution struct {
	Protos map[packet.Protocol]Counters
}

// NewProtocolDistribution returns an empty distribution.
func NewProtocolDistribution() *ProtocolDistribution {
	return &ProtocolDistribution{Protos: make(map[packet.Protocol]Counters)}
}

// Name implements Object.
func (d *ProtocolDistribution) Name() string { return "protocol-distribution" }

// Record implements Object.
func (d *ProtocolDistribution) Record(p trace.Packet, weight uint64) {
	c := d.Protos[p.Protocol]
	c.add(p.Size, weight)
	d.Protos[p.Protocol] = c
}

// --- packet-length histogram ---------------------------------------------------

// LengthHistogramBins is the number of 50-byte bins covering sizes up to
// the FDDI-era maximum; the last bin absorbs everything above.
const LengthHistogramBins = 31 // [0,50), [50,100), ..., [1500, ∞)

// LengthHistogram is the packet-length histogram at 50-byte granularity
// (a T1-only object in Table 1).
type LengthHistogram struct {
	Bins [LengthHistogramBins]uint64
}

// NewLengthHistogram returns an empty histogram.
func NewLengthHistogram() *LengthHistogram { return &LengthHistogram{} }

// Name implements Object.
func (h *LengthHistogram) Name() string { return "length-histogram" }

// Record implements Object.
func (h *LengthHistogram) Record(p trace.Packet, weight uint64) {
	bin := int(p.Size) / 50
	if bin >= LengthHistogramBins {
		bin = LengthHistogramBins - 1
	}
	h.Bins[bin] += weight
}

// --- arrival-rate histogram ------------------------------------------------------

// RateHistogramBins covers 0..1000+ pps at 20 pps granularity.
const RateHistogramBins = 51

// RateHistogram is the per-second histogram of packet arrival rates at
// 20 pps granularity (a T1-only, NSS-centric object). It needs packet
// timestamps, so it tracks the current second internally.
type RateHistogram struct {
	Bins       [RateHistogramBins]uint64
	curSecond  int64
	curPackets uint64
	started    bool
}

// NewRateHistogram returns an empty histogram.
func NewRateHistogram() *RateHistogram { return &RateHistogram{} }

// Name implements Object.
func (h *RateHistogram) Name() string { return "rate-histogram" }

// Record implements Object. Packets must arrive in time order.
func (h *RateHistogram) Record(p trace.Packet, weight uint64) {
	sec := p.Time / 1e6
	if !h.started {
		h.started = true
		h.curSecond = sec
	}
	for h.curSecond < sec {
		h.flushSecond()
		h.curSecond++
	}
	h.curPackets += weight
}

// flushSecond bins the finished second's count.
func (h *RateHistogram) flushSecond() {
	bin := int(h.curPackets / 20)
	if bin >= RateHistogramBins {
		bin = RateHistogramBins - 1
	}
	h.Bins[bin]++
	h.curPackets = 0
}

// --- scalar volumes ------------------------------------------------------------

// Volume is a plain packets/bytes volume object, used for both the
// "packet volume going out of backbone node" and "NSS transit traffic
// volume" rows of Table 1.
type Volume struct {
	ObjName string
	C       Counters
}

// NewVolume returns an empty volume object with the given Table 1 name.
func NewVolume(name string) *Volume { return &Volume{ObjName: name} }

// Name implements Object.
func (v *Volume) Name() string { return v.ObjName }

// Record implements Object.
func (v *Volume) Record(p trace.Packet, weight uint64) { v.C.add(p.Size, weight) }
