package traffgen

import (
	"netsample/internal/dist"
	"netsample/internal/packet"
	"netsample/internal/trace"
)

// The scenario overlay models follow the same scratch-flow idiom as the
// application-mix models in sources.go: each model embeds one flow
// struct that newFlow reinitializes, a flow is fully drained before the
// next newFlow, and spawning a flow allocates nothing. Model factories
// (newSYNFloodModel etc.) draw their fixed roles — victim, hot server,
// planted 5-tuple — from a child RNG at construction, so the roles are
// part of the scenario's seed contract.

// --- SYN flood ---------------------------------------------------------------

// synFloodModel emits a DDoS SYN flood: minimum-size TCP SYNs from
// randomly spoofed sources onto one victim host and port. Every flow is
// a near-singleton 5-tuple, so the flood stresses flow-table churn as
// hard as it stresses raw packet rate.
type synFloodModel struct {
	victim  packet.Addr
	scratch synFloodFlow
}

type synFloodFlow struct {
	base      trace.Packet
	remaining int
}

func newSYNFloodModel(r *dist.RNG, addrs *addressPool) sourceModel {
	return &synFloodModel{victim: addrs.dstHosts[r.IntN(len(addrs.dstHosts))]}
}

func (m *synFloodModel) fork() sourceModel { return padded(m) }

func (m *synFloodModel) newFlow(_ int, r *dist.RNG, _ *addressPool) flow {
	// Spoofed source: uniformly random unicast address, fresh per flow.
	src := packet.Addr{
		byte(1 + r.IntN(223)), byte(r.IntN(256)),
		byte(r.IntN(256)), byte(1 + r.IntN(254)),
	}
	m.scratch = synFloodFlow{
		base: trace.Packet{
			Size:     40,
			Protocol: packet.ProtoTCP,
			TCPFlags: packet.TCPSyn,
			Src:      src, Dst: m.victim,
			SrcPort: ephemeralPort(r), DstPort: packet.PortHTTP,
		},
		remaining: 1 + r.IntN(3), // the tool retransmits a little
	}
	return &m.scratch
}

func (f *synFloodFlow) next(r *dist.RNG) (int64, trace.Packet, bool) {
	f.remaining--
	return expGapUS(r, 2_000), f.base, f.remaining > 0
}

// --- flash crowd -------------------------------------------------------------

// flashCrowdModel emits a flash crowd: legitimate short request/response
// sessions from many distinct clients converging on one hot server — a
// load surge with realistic packet sizes, unlike the flood.
type flashCrowdModel struct {
	server  packet.Addr
	scratch flashCrowdFlow
}

type flashCrowdFlow struct {
	base      trace.Packet
	remaining int
}

func newFlashCrowdModel(r *dist.RNG, addrs *addressPool) sourceModel {
	return &flashCrowdModel{server: addrs.dstHosts[r.IntN(len(addrs.dstHosts))]}
}

func (m *flashCrowdModel) fork() sourceModel { return padded(m) }

func (m *flashCrowdModel) newFlow(_ int, r *dist.RNG, addrs *addressPool) flow {
	src := addrs.srcHosts[addrs.srcPick.draw(r)]
	m.scratch = flashCrowdFlow{
		base: trace.Packet{
			Protocol: packet.ProtoTCP,
			TCPFlags: packet.TCPAck,
			Src:      src, Dst: m.server,
			SrcPort: ephemeralPort(r), DstPort: packet.PortHTTP,
		},
		remaining: 3 + geometricCount(r, 8),
	}
	return &m.scratch
}

func (f *flashCrowdFlow) next(r *dist.RNG) (int64, trace.Packet, bool) {
	p := f.base
	if r.Float64() < 0.45 {
		p.Size = uint16(40 + r.IntN(180)) // request or bare ack
	} else {
		p.Size = 552 // response segment
	}
	f.remaining--
	return expGapUS(r, 30_000), p, f.remaining > 0
}

// --- planted elephant --------------------------------------------------------

// elephantModel emits one planted heavy hitter: every flow reuses the
// single 5-tuple drawn at construction, sending long trains of
// MTU-sized segments. A scenario phase built on a fresh elephantModel
// plants a new dominant flow, so consecutive phases churn the top-k
// ranking.
type elephantModel struct {
	base    trace.Packet
	scratch elephantFlow
}

type elephantFlow struct {
	base      trace.Packet
	remaining int
	gapMeanUS float64
}

func newElephantModel(r *dist.RNG, addrs *addressPool) sourceModel {
	src, dst := addrs.pair(r)
	return &elephantModel{base: trace.Packet{
		Size:     1500,
		Protocol: packet.ProtoTCP,
		TCPFlags: packet.TCPAck,
		Src:      src, Dst: dst,
		SrcPort: ephemeralPort(r), DstPort: packet.PortFTPData,
	}}
}

func (m *elephantModel) fork() sourceModel { return padded(m) }

func (m *elephantModel) newFlow(_ int, r *dist.RNG, _ *addressPool) flow {
	m.scratch = elephantFlow{
		base:      m.base,
		remaining: 2000 + r.IntN(2000),
		gapMeanUS: 800 + 1200*r.Float64(),
	}
	return &m.scratch
}

func (f *elephantFlow) next(r *dist.RNG) (int64, trace.Packet, bool) {
	p := f.base
	f.remaining--
	if f.remaining <= 0 {
		p.TCPFlags |= packet.TCPFin
		return expGapUS(r, f.gapMeanUS), p, false
	}
	return expGapUS(r, f.gapMeanUS), p, true
}

// --- port scan ---------------------------------------------------------------

// portScanModel emits a sequential port scan: one scanner probing one
// victim's ports in order with 1-2 packet flows — the maximum
// distinct-flow pressure per packet a pipeline can see. Flow i probes
// port 1 + i mod 65535.
type portScanModel struct {
	scanner packet.Addr
	victim  packet.Addr
	srcPort uint16
	scratch portScanFlow
}

type portScanFlow struct {
	base      trace.Packet
	remaining int
}

func newPortScanModel(r *dist.RNG, addrs *addressPool) sourceModel {
	return &portScanModel{
		scanner: addrs.srcHosts[r.IntN(len(addrs.srcHosts))],
		victim:  addrs.dstHosts[r.IntN(len(addrs.dstHosts))],
		srcPort: ephemeralPort(r),
	}
}

func (m *portScanModel) fork() sourceModel { return padded(m) }

func (m *portScanModel) newFlow(i int, r *dist.RNG, _ *addressPool) flow {
	port := uint16(1 + i%65535)
	remaining := 1
	if r.Float64() < 0.25 {
		remaining = 2 // unanswered probe retransmitted once
	}
	m.scratch = portScanFlow{
		base: trace.Packet{
			Size:     40,
			Protocol: packet.ProtoTCP,
			TCPFlags: packet.TCPSyn,
			Src:      m.scanner, Dst: m.victim,
			SrcPort: m.srcPort, DstPort: port,
		},
		remaining: remaining,
	}
	return &m.scratch
}

func (f *portScanFlow) next(r *dist.RNG) (int64, trace.Packet, bool) {
	f.remaining--
	return expGapUS(r, 300_000), f.base, f.remaining > 0
}

// --- elephants vs mice -------------------------------------------------------

// elephantMiceModel draws each flow as an elephant (a long 1500 B train)
// with small probability, otherwise a mouse (a few small packets): the
// canonical flow-size skew where a sliver of the flows carries almost
// all of the bytes.
type elephantMiceModel struct {
	scratch elephantMiceFlow
}

type elephantMiceFlow struct {
	base      trace.Packet
	remaining int
	elephant  bool
	gapMeanUS float64
}

func newElephantMiceModel(*dist.RNG, *addressPool) sourceModel {
	return &elephantMiceModel{}
}

func (m *elephantMiceModel) fork() sourceModel { return padded(m) }

func (m *elephantMiceModel) newFlow(_ int, r *dist.RNG, addrs *addressPool) flow {
	src, dst := addrs.pair(r)
	base := trace.Packet{
		Protocol: packet.ProtoTCP,
		TCPFlags: packet.TCPAck,
		Src:      src, Dst: dst,
		SrcPort: ephemeralPort(r),
	}
	if r.Float64() < 0.05 {
		base.DstPort = packet.PortFTPData
		m.scratch = elephantMiceFlow{
			base: base, elephant: true,
			remaining: 1500 + r.IntN(1500),
			gapMeanUS: 1500 + 2000*r.Float64(),
		}
	} else {
		base.DstPort = packet.PortHTTP
		if r.Float64() < 0.3 {
			base.DstPort = packet.PortDNS
			base.Protocol = packet.ProtoUDP
			base.TCPFlags = 0
		}
		m.scratch = elephantMiceFlow{
			base:      base,
			remaining: 1 + r.IntN(9),
			gapMeanUS: 50_000,
		}
	}
	return &m.scratch
}

func (f *elephantMiceFlow) next(r *dist.RNG) (int64, trace.Packet, bool) {
	p := f.base
	if f.elephant {
		p.Size = 1500
	} else {
		p.Size = uint16(40 + r.IntN(260))
	}
	f.remaining--
	return expGapUS(r, f.gapMeanUS), p, f.remaining > 0
}
