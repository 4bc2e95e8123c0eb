// Package trace defines the packet-trace model of the study: a packet
// record carrying the fields the NSFNET statistics objects key on
// (timestamp, IP length, protocol, addresses, ports), an in-memory Trace
// with the windowing and distribution-extraction operations the sampling
// simulations need, and a compact binary on-disk format with a
// reader/writer pair.
//
// Timestamps are microseconds from the start of the trace, matching the
// paper's microsecond interarrival units; the capture clock's 400 µs
// granularity is a property of the generator, not the format.
package trace

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"netsample/internal/packet"
)

// Packet is one trace record: the header fields of an IP packet plus its
// arrival timestamp. Size is the IP total length in bytes — the "packet
// size" the paper's first target distribution is built from.
type Packet struct {
	Time     int64 // µs since trace start
	Size     uint16
	Protocol packet.Protocol
	TCPFlags uint8
	Src, Dst packet.Addr
	SrcPort  uint16
	DstPort  uint16
}

// WireBytes encodes the packet as an on-the-wire IPv4 header plus
// transport header (payload omitted — header-only capture), so node
// simulations can exercise the real codec path. The returned slice is
// freshly allocated.
func (p Packet) WireBytes() ([]byte, error) {
	ip := packet.IPv4{
		TotalLength: p.Size,
		TTL:         30,
		Protocol:    p.Protocol,
		Src:         p.Src,
		Dst:         p.Dst,
	}
	buf := make([]byte, packet.IPv4HeaderLen+packet.TCPHeaderLen)
	n, err := ip.Encode(buf)
	if err != nil {
		return nil, err
	}
	switch p.Protocol {
	case packet.ProtoTCP:
		t := packet.TCP{SrcPort: p.SrcPort, DstPort: p.DstPort, Flags: p.TCPFlags}
		m, err := t.Encode(buf[n:])
		if err != nil {
			return nil, err
		}
		return buf[:n+m], nil
	case packet.ProtoUDP:
		length := p.Size
		if length < packet.IPv4HeaderLen+packet.UDPHeaderLen {
			length = packet.IPv4HeaderLen + packet.UDPHeaderLen
		}
		u := packet.UDP{SrcPort: p.SrcPort, DstPort: p.DstPort,
			Length: length - packet.IPv4HeaderLen}
		m, err := u.Encode(buf[n:])
		if err != nil {
			return nil, err
		}
		return buf[:n+m], nil
	case packet.ProtoICMP:
		c := packet.ICMP{Type: 8}
		m, err := c.Encode(buf[n:])
		if err != nil {
			return nil, err
		}
		return buf[:n+m], nil
	default:
		return buf[:n], nil
	}
}

// Trace is an ordered sequence of packets with a nominal start time and
// the capture clock granularity used to quantize timestamps.
type Trace struct {
	Start   time.Time // wall-clock time of timestamp zero (informational)
	ClockUS int64     // capture clock granularity in µs (0 = unquantized)
	Packets []Packet
}

// ErrUnordered reports a trace whose timestamps decrease.
var ErrUnordered = errors.New("trace: packet timestamps not non-decreasing")

// Validate checks the structural invariants: non-decreasing timestamps
// and, if ClockUS is set, timestamps quantized to the clock granularity.
func (t *Trace) Validate() error {
	for i, p := range t.Packets {
		if i > 0 && p.Time < t.Packets[i-1].Time {
			return fmt.Errorf("%w: index %d", ErrUnordered, i)
		}
		if t.ClockUS > 0 && p.Time%t.ClockUS != 0 {
			return fmt.Errorf("trace: timestamp %d not a multiple of clock %d µs", p.Time, t.ClockUS)
		}
	}
	return nil
}

// Len returns the number of packets.
func (t *Trace) Len() int { return len(t.Packets) }

// Duration returns the time spanned from the first to the last packet.
func (t *Trace) Duration() time.Duration {
	if len(t.Packets) == 0 {
		return 0
	}
	return time.Duration(t.Packets[len(t.Packets)-1].Time-t.Packets[0].Time) * time.Microsecond
}

// Window returns the sub-trace with timestamps in [fromUS, toUS): a
// capacity-clipped share of the packet slice, not a copy (an append
// reallocates). It uses binary search, so the trace must be ordered.
func (t *Trace) Window(fromUS, toUS int64) *Trace {
	lo := sort.Search(len(t.Packets), func(i int) bool { return t.Packets[i].Time >= fromUS })
	hi := sort.Search(len(t.Packets), func(i int) bool { return t.Packets[i].Time >= toUS })
	return &Trace{Start: t.Start, ClockUS: t.ClockUS, Packets: t.Packets[lo:hi:hi]}
}

// Filter returns a new trace containing the packets for which keep
// returns true. Metadata is preserved; the packet slice is fresh.
func (t *Trace) Filter(keep func(Packet) bool) *Trace {
	out := &Trace{Start: t.Start, ClockUS: t.ClockUS}
	for _, p := range t.Packets {
		if keep(p) {
			out.Packets = append(out.Packets, p)
		}
	}
	return out
}

// Sizes returns the packet-size distribution (bytes per packet) as
// float64s for the statistics machinery.
func (t *Trace) Sizes() []float64 {
	out := make([]float64, len(t.Packets))
	for i, p := range t.Packets {
		out[i] = float64(p.Size)
	}
	return out
}

// Interarrivals returns the packet interarrival-time distribution in
// microseconds: element i is Packets[i+1].Time - Packets[i].Time. A
// trace with fewer than two packets yields an empty slice.
//
// With a quantized capture clock many interarrivals are 0 µs (packets in
// the same tick); the paper's Table 3 reports these as "< 400".
func (t *Trace) Interarrivals() []float64 {
	if len(t.Packets) < 2 {
		return nil
	}
	out := make([]float64, len(t.Packets)-1)
	for i := 1; i < len(t.Packets); i++ {
		out[i-1] = float64(t.Packets[i].Time - t.Packets[i-1].Time)
	}
	return out
}

// TotalBytes sums the IP lengths of all packets.
func (t *Trace) TotalBytes() int64 {
	var sum int64
	for _, p := range t.Packets {
		sum += int64(p.Size)
	}
	return sum
}

// PerSecond is one row of the per-second aggregation behind the paper's
// Table 2: packets per second, bytes per second, and mean packet size
// within the second.
type PerSecond struct {
	Second   int64 // second index from timestamp zero
	Packets  int64
	Bytes    int64
	MeanSize float64
}

// PerSecondSeries aggregates the trace into consecutive one-second rows,
// including empty seconds between the first and last packet (with
// MeanSize 0), so rate distributions are not biased by gaps.
func (t *Trace) PerSecondSeries() []PerSecond {
	if len(t.Packets) == 0 {
		return nil
	}
	first := t.Packets[0].Time / 1e6
	last := t.Packets[len(t.Packets)-1].Time / 1e6
	rows := make([]PerSecond, last-first+1)
	for i := range rows {
		rows[i].Second = first + int64(i)
	}
	for _, p := range t.Packets {
		r := &rows[p.Time/1e6-first]
		r.Packets++
		r.Bytes += int64(p.Size)
	}
	for i := range rows {
		if rows[i].Packets > 0 {
			rows[i].MeanSize = float64(rows[i].Bytes) / float64(rows[i].Packets)
		}
	}
	return rows
}
