// Package nsfnet models the statistics-collection architecture of the
// NSFNET backbone nodes described in Section 2 of the paper:
//
//   - T1 NSS: a dedicated IBM RT/PC examines the header of every packet
//     crossing the intra-NSS token ring and feeds NNStat objects. The
//     processor has finite capacity; by mid-1991 offered load exceeded
//     it and the categorization counts fell visibly short of the exact
//     in-path SNMP counters (the paper's Figure 1). Deploying 1-in-50
//     systematic sampling in September 1991 cut the processor load and
//     collapsed the discrepancy.
//
//   - T3 node: packet forwarding runs on intelligent subsystems (Intel
//     960 cards); statistics selection lives in subsystem firmware,
//     which forwards every fiftieth packet to the RS/6000 main CPU
//     where ARTS categorizes it. That is not modeled here: select in
//     the forwarding path, then categorize 1 in k, is what
//     internal/pipeline's reader and shards are, and nsd exports the
//     result as window snapshots.
//
// The statistics processor is modeled as a single-server queue with a
// fixed per-packet service time and a finite buffer: offered packets are
// dropped (lost to categorization, never to forwarding) when the buffer
// is full. SNMP interface counters are incremented in the forwarding
// path and are always exact.
package nsfnet

// Processor is a finite-buffer single-server queue representing a
// statistics processor. Time is in microseconds, matching trace
// timestamps. The zero value is not valid; use NewProcessor.
type Processor struct {
	serviceUS float64 // per-packet categorization time
	buffer    int     // max packets queued or in service

	// queue of service-completion times for packets in the system;
	// kept as a ring to bound allocation.
	completions []float64
	head, count int

	offered  uint64
	accepted uint64
	dropped  uint64
}

// NewProcessor builds a processor that can categorize `capacityPPS`
// packets per second steady-state, with a buffer of `buffer` packets.
func NewProcessor(capacityPPS float64, buffer int) *Processor {
	if capacityPPS <= 0 {
		capacityPPS = 1
	}
	if buffer < 1 {
		buffer = 1
	}
	return &Processor{
		serviceUS:   1e6 / capacityPPS,
		buffer:      buffer,
		completions: make([]float64, buffer),
	}
}

// Offer presents a packet arriving at time tUS. It returns true if the
// processor accepts the packet for categorization, false if the packet
// is lost to statistics (the forwarding path is never affected).
// Arrivals must be presented in non-decreasing time order.
func (p *Processor) Offer(tUS int64) bool {
	t := float64(tUS)
	p.offered++
	// Retire completed packets.
	for p.count > 0 && p.completions[p.head] <= t {
		p.head = (p.head + 1) % p.buffer
		p.count--
	}
	if p.count >= p.buffer {
		p.dropped++
		return false
	}
	start := t
	if p.count > 0 {
		// Service starts when the previous packet finishes.
		last := (p.head + p.count - 1) % p.buffer
		if p.completions[last] > start {
			start = p.completions[last]
		}
	}
	tail := (p.head + p.count) % p.buffer
	p.completions[tail] = start + p.serviceUS
	p.count++
	p.accepted++
	return true
}

// Offered returns the number of packets presented.
func (p *Processor) Offered() uint64 { return p.offered }

// Accepted returns the number of packets categorized.
func (p *Processor) Accepted() uint64 { return p.accepted }

// Dropped returns the number of packets lost to categorization.
func (p *Processor) Dropped() uint64 { return p.dropped }
