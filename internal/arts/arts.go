// Package arts describes the traffic-characterization objects of the
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
// It holds the backbone generations and the objects each supports
// (Table 1), and the packet-length histogram (the length-histogram
// fidelity experiment). The port distribution and the traffic matrix
// are characterized by core's categorizers; the T1 node model
// (nsfnet.T1Node) counts its categorized packets itself.
package arts

import "netsample/internal/trace"

// Backbone identifies which NSFNET backbone generation's object profile
// a node collects (Table 1's Y / N/A column).
type Backbone int

// Backbone generations.
const (
	T1 Backbone = iota
	T3
)

// String names the backbone.
func (b Backbone) String() string {
	if b == T3 {
		return "T3"
	}
	return "T1"
}

// SupportedObjectNames lists the Table 1 object names a backbone
// generation supports, in table order: T1 nodes collect all seven, T3
// nodes only the first three (matrix, ports, protocols).
func SupportedObjectNames(b Backbone) []string {
	names := []string{"src-dst-matrix", "port-distribution", "protocol-distribution"}
	if b == T1 {
		names = append(names, "length-histogram", "outbound-volume", "rate-histogram", "transit-volume")
	}
	return names
}

// LengthHistogramBins is the number of 50-byte bins covering sizes up to
// the FDDI-era maximum; the last bin absorbs everything above.
const LengthHistogramBins = 31 // [0,50), [50,100), ..., [1500, ∞)

// LengthHistogram is the packet-length histogram at 50-byte granularity
// (a T1-only object in Table 1). The zero value is an empty histogram.
type LengthHistogram struct {
	Bins [LengthHistogramBins]uint64
}

// Record accumulates a packet with the given scale-up weight: 1 for
// unsampled collection, k for a packet standing for k under 1-in-k
// sampling.
func (h *LengthHistogram) Record(p trace.Packet, weight uint64) {
	bin := int(p.Size) / 50
	if bin >= LengthHistogramBins {
		bin = LengthHistogramBins - 1
	}
	h.Bins[bin] += weight
}
