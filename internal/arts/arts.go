// Package arts implements the traffic-characterization objects of the
// NSFNET statistics collection (the paper's Table 1), in the mold of the
// NNStat (T1 backbone) and ARTS (T3 backbone) packages:
//
//	relative to the exterior nodal interface:
//	  - source-destination traffic matrix by network number (pkts/bytes)
//	  - TCP/UDP port distribution, well-known subset (pkts/bytes)
//	  - distribution of protocol over IP (pkts/bytes)
//	  - packet-length histogram at 50-byte granularity
//	  - packet volume going out of the backbone node
//	NSS-centric:
//	  - per-second histogram of packet arrival rates (20 pps granularity)
//	  - NSS transit traffic volume
//
// Objects accumulate Record()ed packets. They serve the batch models:
// nsfnet.T1Node's categorization counts (Figure 1), the Table 1 support
// matrix and the length-histogram fidelity experiment. The live
// collection plane exports pipeline snapshots instead (package collect).
package arts

import (
	"netsample/internal/packet"
	"netsample/internal/trace"
)

// Counters is the packets/bytes pair every Table 1 object accumulates.
type Counters struct {
	Packets uint64
	Bytes   uint64
}

// add accumulates one packet of the given size.
func (c *Counters) add(size uint16, weight uint64) {
	c.Packets += weight
	c.Bytes += weight * uint64(size)
}

// Object is a traffic-characterization object. Record consumes one
// packet; Weight-ed recording supports sampled collection, where each
// selected packet stands for `weight` packets (50 on the T3 backbone).
type Object interface {
	// Name is the object's Table 1 identifier.
	Name() string
	// Record accumulates a packet with the given scale-up weight
	// (1 for unsampled collection).
	Record(p trace.Packet, weight uint64)
}

// --- source/destination matrix ---------------------------------------------

// NetPair keys the traffic matrix: classful network numbers of source
// and destination.
type NetPair struct {
	Src, Dst packet.Addr
}

// SrcDstMatrix is the source-destination traffic volume matrix by
// network number.
type SrcDstMatrix struct {
	M map[NetPair]Counters
}

// NewSrcDstMatrix returns an empty matrix.
func NewSrcDstMatrix() *SrcDstMatrix {
	return &SrcDstMatrix{M: make(map[NetPair]Counters)}
}

// Name implements Object.
func (m *SrcDstMatrix) Name() string { return "src-dst-matrix" }

// Record implements Object.
func (m *SrcDstMatrix) Record(p trace.Packet, weight uint64) {
	key := NetPair{Src: p.Src.NetworkNumber(), Dst: p.Dst.NetworkNumber()}
	c := m.M[key]
	c.add(p.Size, weight)
	m.M[key] = c
}
