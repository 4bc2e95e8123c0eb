package core

import (
	"math"
	"slices"
	"sync"

	"netsample/internal/stats"
	"netsample/internal/trace"
)

// Profile is the characterization of a parent population the paper's
// Tables 2–3 give once and every later artifact reads: for each target,
// the moments and the Table 3 quantile row. It is computed from the
// packets in place — no population-length float vector of sizes or
// interarrivals is ever built — in two independent parts, each at most
// once and only when first asked for, so a caller that needs only means
// and deviations never pays for order statistics. Safe for concurrent
// use.
type Profile struct {
	pop *trace.Trace

	momentsOnce sync.Once
	moments     [2]stats.Summary // indexed by Target
	momentsErr  [2]error

	summaryOnce sync.Once
	summary     [2]stats.PopulationSummary
	summaryErr  [2]error
}

// NewProfile returns the (not yet computed) profile of pop.
func NewProfile(pop *trace.Trace) *Profile { return &Profile{pop: pop} }

// Population returns the trace the profile describes.
func (p *Profile) Population() *trace.Trace { return p.pop }

// Moments returns the moment summary of the target's observations: what
// stats.Describe returns for PopulationObservations, bit for bit. It
// fails with stats.ErrEmpty when the target has no observation.
func (p *Profile) Moments(target Target) (stats.Summary, error) {
	p.momentsOnce.Do(func() {
		for _, t := range []Target{TargetSize, TargetInterarrival} {
			p.moments[t], p.momentsErr[t] = describePackets(p.pop.Packets, t)
		}
	})
	return p.moments[target], p.momentsErr[target]
}

// Summary returns the target's Table 3 row: type-7 quantiles of the
// observations plus their mean and standard deviation.
func (p *Profile) Summary(target Target) (stats.PopulationSummary, error) {
	p.summaryOnce.Do(func() {
		pk := p.pop.Packets
		for _, t := range []Target{TargetSize, TargetInterarrival} {
			d, err := p.Moments(t)
			if err != nil {
				p.summaryErr[t] = err
				continue
			}
			order := sizeOrder
			if t == TargetInterarrival {
				order = gapOrder
			}
			p.summary[t], p.summaryErr[t] = stats.Population(d, order(pk))
		}
	})
	return p.summary[target], p.summaryErr[target]
}

// observation is packet i's observation of the target; the
// interarrival target has none at i = 0.
func observation(pk []trace.Packet, target Target, i int) float64 {
	if target == TargetInterarrival {
		return float64(pk[i].Time - pk[i-1].Time)
	}
	return float64(pk[i].Size)
}

// describePackets is stats.Describe over the target's observations,
// read straight from the packets: the same two passes, in the same
// order, with the same operations, so the result equals Describe of
// the materialized vector bit for bit.
func describePackets(pk []trace.Packet, target Target) (stats.Summary, error) {
	lo := 0
	if target == TargetInterarrival {
		lo = 1
	}
	if len(pk) <= lo {
		return stats.Summary{}, stats.ErrEmpty
	}
	first := observation(pk, target, lo)
	s := stats.Summary{N: len(pk) - lo, Min: first, Max: first}
	var sum float64
	for i := lo; i < len(pk); i++ {
		x := observation(pk, target, i)
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	n := float64(s.N)
	s.Mean = sum / n
	var m2, m3, m4 float64
	for i := lo; i < len(pk); i++ {
		d := observation(pk, target, i) - s.Mean
		d2 := d * d
		m2 += d2
		m3 += d2 * d
		m4 += d2 * d2
	}
	m2 /= n
	m3 /= n
	m4 /= n
	s.StdDev = math.Sqrt(m2)
	if m2 > 0 {
		s.Skewness = m3 / math.Pow(m2, 1.5)
		s.Kurtosis = m4 / (m2 * m2)
	}
	return s, nil
}

// sizeOrder returns the order statistics of the packet sizes. A size is
// a uint16, so a table of how often each value occurs is the sorted
// multiset: the rank-th smallest size is found by walking the
// cumulative counts.
func sizeOrder(pk []trace.Packet) func(rank int) float64 {
	counts := make([]int, 1<<16)
	for i := range pk {
		counts[pk[i].Size]++
	}
	return func(rank int) float64 {
		for size, c := range counts {
			if rank < c {
				return float64(size)
			}
			rank -= c
		}
		panic("core: size rank beyond the population")
	}
}

// gapOrder returns the order statistics of the interarrival gaps: the
// integer gaps sorted in place — the profile's one population-length
// allocation, released with the returned function.
func gapOrder(pk []trace.Packet) func(rank int) float64 {
	gaps := make([]int64, len(pk)-1)
	for i := range gaps {
		gaps[i] = pk[i+1].Time - pk[i].Time
	}
	slices.Sort(gaps)
	return func(rank int) float64 { return float64(gaps[rank]) }
}
