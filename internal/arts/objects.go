package arts

import (
	"encoding/binary"
	"fmt"
	"sort"

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

// Reset implements Object.
func (d *PortDistribution) Reset() { d.Ports = make(map[uint16]Counters) }

// MarshalBinary implements Object: count then 20-byte rows sorted by port.
func (d *PortDistribution) MarshalBinary() ([]byte, error) {
	ports := make([]uint16, 0, len(d.Ports))
	for p := range d.Ports {
		ports = append(ports, p)
	}
	sort.Slice(ports, func(i, j int) bool { return ports[i] < ports[j] })
	buf := make([]byte, 8+20*len(ports))
	binary.LittleEndian.PutUint64(buf, uint64(len(ports)))
	off := 8
	for _, p := range ports {
		c := d.Ports[p]
		binary.LittleEndian.PutUint16(buf[off:], p)
		binary.LittleEndian.PutUint64(buf[off+4:], c.Packets)
		binary.LittleEndian.PutUint64(buf[off+12:], c.Bytes)
		off += 20
	}
	return buf, nil
}

// UnmarshalBinary implements Object.
func (d *PortDistribution) UnmarshalBinary(data []byte) error {
	if len(data) < 8 {
		return fmt.Errorf("%w: ports too short", ErrCorrupt)
	}
	n := binary.LittleEndian.Uint64(data)
	if uint64(len(data)) != 8+20*n {
		return fmt.Errorf("%w: ports length mismatch", ErrCorrupt)
	}
	d.Ports = make(map[uint16]Counters, n)
	off := 8
	for i := uint64(0); i < n; i++ {
		p := binary.LittleEndian.Uint16(data[off:])
		d.Ports[p] = Counters{
			Packets: binary.LittleEndian.Uint64(data[off+4:]),
			Bytes:   binary.LittleEndian.Uint64(data[off+12:]),
		}
		off += 20
	}
	return nil
}

// Merge folds another distribution into this one.
func (d *PortDistribution) Merge(o *PortDistribution) {
	for k, v := range o.Ports {
		c := d.Ports[k]
		c.Packets += v.Packets
		c.Bytes += v.Bytes
		d.Ports[k] = c
	}
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

// Reset implements Object.
func (d *ProtocolDistribution) Reset() { d.Protos = make(map[packet.Protocol]Counters) }

// MarshalBinary implements Object: count then 17-byte rows sorted by
// protocol number.
func (d *ProtocolDistribution) MarshalBinary() ([]byte, error) {
	protos := make([]int, 0, len(d.Protos))
	for p := range d.Protos {
		protos = append(protos, int(p))
	}
	sort.Ints(protos)
	buf := make([]byte, 8+17*len(protos))
	binary.LittleEndian.PutUint64(buf, uint64(len(protos)))
	off := 8
	for _, p := range protos {
		c := d.Protos[packet.Protocol(p)]
		buf[off] = byte(p)
		binary.LittleEndian.PutUint64(buf[off+1:], c.Packets)
		binary.LittleEndian.PutUint64(buf[off+9:], c.Bytes)
		off += 17
	}
	return buf, nil
}

// UnmarshalBinary implements Object.
func (d *ProtocolDistribution) UnmarshalBinary(data []byte) error {
	if len(data) < 8 {
		return fmt.Errorf("%w: protocols too short", ErrCorrupt)
	}
	n := binary.LittleEndian.Uint64(data)
	if uint64(len(data)) != 8+17*n {
		return fmt.Errorf("%w: protocols length mismatch", ErrCorrupt)
	}
	d.Protos = make(map[packet.Protocol]Counters, n)
	off := 8
	for i := uint64(0); i < n; i++ {
		p := packet.Protocol(data[off])
		d.Protos[p] = Counters{
			Packets: binary.LittleEndian.Uint64(data[off+1:]),
			Bytes:   binary.LittleEndian.Uint64(data[off+9:]),
		}
		off += 17
	}
	return nil
}

// Merge folds another distribution into this one.
func (d *ProtocolDistribution) Merge(o *ProtocolDistribution) {
	for k, v := range o.Protos {
		c := d.Protos[k]
		c.Packets += v.Packets
		c.Bytes += v.Bytes
		d.Protos[k] = c
	}
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

// Reset implements Object.
func (h *LengthHistogram) Reset() { h.Bins = [LengthHistogramBins]uint64{} }

// MarshalBinary implements Object.
func (h *LengthHistogram) MarshalBinary() ([]byte, error) {
	buf := make([]byte, 8*LengthHistogramBins)
	for i, v := range h.Bins {
		binary.LittleEndian.PutUint64(buf[8*i:], v)
	}
	return buf, nil
}

// UnmarshalBinary implements Object.
func (h *LengthHistogram) UnmarshalBinary(data []byte) error {
	if len(data) != 8*LengthHistogramBins {
		return fmt.Errorf("%w: length histogram size", ErrCorrupt)
	}
	for i := range h.Bins {
		h.Bins[i] = binary.LittleEndian.Uint64(data[8*i:])
	}
	return nil
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

// Finish flushes the in-progress second; call before reading Bins.
func (h *RateHistogram) Finish() {
	if h.started {
		h.flushSecond()
		h.started = false
	}
}

// Reset implements Object.
func (h *RateHistogram) Reset() { *h = RateHistogram{} }

// MarshalBinary implements Object (Finish first for a complete view).
func (h *RateHistogram) MarshalBinary() ([]byte, error) {
	buf := make([]byte, 8*RateHistogramBins)
	for i, v := range h.Bins {
		binary.LittleEndian.PutUint64(buf[8*i:], v)
	}
	return buf, nil
}

// UnmarshalBinary implements Object.
func (h *RateHistogram) UnmarshalBinary(data []byte) error {
	if len(data) != 8*RateHistogramBins {
		return fmt.Errorf("%w: rate histogram size", ErrCorrupt)
	}
	for i := range h.Bins {
		h.Bins[i] = binary.LittleEndian.Uint64(data[8*i:])
	}
	return nil
}

// --- scalar volumes ------------------------------------------------------------

// Volume is a plain packets/bytes volume object, used for both the
// "packet volume going out of backbone node" and "NSS transit traffic
// volume" rows of Table 1.
type Volume struct {
	ObjName string
	C       Counters
}

// NewVolume returns an empty volume object with the given report name.
func NewVolume(name string) *Volume { return &Volume{ObjName: name} }

// Name implements Object.
func (v *Volume) Name() string { return v.ObjName }

// Record implements Object.
func (v *Volume) Record(p trace.Packet, weight uint64) { v.C.add(p.Size, weight) }

// Reset implements Object.
func (v *Volume) Reset() { v.C = Counters{} }

// MarshalBinary implements Object.
func (v *Volume) MarshalBinary() ([]byte, error) {
	buf := make([]byte, 16)
	binary.LittleEndian.PutUint64(buf, v.C.Packets)
	binary.LittleEndian.PutUint64(buf[8:], v.C.Bytes)
	return buf, nil
}

// UnmarshalBinary implements Object.
func (v *Volume) UnmarshalBinary(data []byte) error {
	if len(data) != 16 {
		return fmt.Errorf("%w: volume size", ErrCorrupt)
	}
	v.C.Packets = binary.LittleEndian.Uint64(data)
	v.C.Bytes = binary.LittleEndian.Uint64(data[8:])
	return nil
}
