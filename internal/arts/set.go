package arts

import (
	"netsample/internal/trace"
)

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

// ObjectSet is the live object collection of one node. T1 nodes support
// all seven Table 1 objects; T3 nodes only the first three (matrix,
// ports, protocols).
type ObjectSet struct {
	Backbone Backbone

	Matrix    *SrcDstMatrix
	Ports     *PortDistribution
	Protocols *ProtocolDistribution

	// T1-only objects; nil on T3 sets.
	Lengths  *LengthHistogram
	Outbound *Volume
	Rates    *RateHistogram
	Transit  *Volume

	// objs is Objects() built once by NewObjectSet, so the per-packet
	// Record does not rebuild it; nil on a set assembled by hand, which
	// falls back to Objects(). The object fields are fixed once the set
	// is in use.
	objs []Object
}

// NewObjectSet creates the object profile for a backbone generation.
func NewObjectSet(b Backbone) *ObjectSet {
	s := &ObjectSet{
		Backbone:  b,
		Matrix:    NewSrcDstMatrix(),
		Ports:     NewPortDistribution(),
		Protocols: NewProtocolDistribution(),
	}
	if b == T1 {
		s.Lengths = NewLengthHistogram()
		s.Outbound = NewVolume("outbound-volume")
		s.Rates = NewRateHistogram()
		s.Transit = NewVolume("transit-volume")
	}
	s.objs = s.Objects()
	return s
}

// Objects returns the set's objects in Table 1 order.
func (s *ObjectSet) Objects() []Object {
	out := []Object{s.Matrix, s.Ports, s.Protocols}
	if s.Backbone == T1 {
		out = append(out, s.Lengths, s.Outbound, s.Rates, s.Transit)
	}
	return out
}

// SupportedObjectNames lists the Table 1 object names a backbone
// generation supports, in table order.
func SupportedObjectNames(b Backbone) []string {
	names := []string{"src-dst-matrix", "port-distribution", "protocol-distribution"}
	if b == T1 {
		names = append(names, "length-histogram", "outbound-volume", "rate-histogram", "transit-volume")
	}
	return names
}

// list is Objects() without the per-call slice where NewObjectSet
// built it; callers must not modify the result.
func (s *ObjectSet) list() []Object {
	if s.objs != nil {
		return s.objs
	}
	return s.Objects()
}

// Record feeds one packet (with a sampling scale-up weight) to every
// object in the set.
func (s *ObjectSet) Record(p trace.Packet, weight uint64) {
	for _, o := range s.list() {
		o.Record(p, weight)
	}
}

// TotalPackets reports the packet total seen by the protocol
// distribution (every IP packet is counted there exactly once).
func (s *ObjectSet) TotalPackets() uint64 {
	var t uint64
	for _, c := range s.Protocols.Protos {
		t += c.Packets
	}
	return t
}
