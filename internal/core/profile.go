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
// stats.Describe returns for the materialized observations, bit for bit. It
// fails with stats.ErrEmpty when the target has no observation.
func (p *Profile) Moments(target Target) (stats.Summary, error) {
	p.momentsOnce.Do(func() {
		for _, t := range []Target{TargetSize, TargetInterarrival} {
			p.momentsErr[t] = describePackets(p.pop.Packets, t, 1, p.moments[t:t+1])
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

// firstObservation is the first packet that carries an observation of
// the target: packet 0 has no predecessor, so no interarrival.
func firstObservation(target Target) int {
	if target == TargetInterarrival {
		return 1
	}
	return 0
}

// describePackets is stats.Describe over each of the stride systematic
// samples of the target's observations, read straight from the packets
// into out[:stride]: out[j] describes observations j, j+stride,
// j+2·stride, …. Stride 1 describes the whole population. One
// sequential walk feeds every sample's accumulators, each sample's in
// its own order, and the second walk likewise; the accumulators are
// out's own fields until they are finished, so every sample gets the
// same operations, in the same order, as Describe of its materialized
// vector, and the same bits. There must be at least stride
// observations; an empty population fails with stats.ErrEmpty.
func describePackets(pk []trace.Packet, target Target, stride int, out []stats.Summary) error {
	first := firstObservation(target)
	if len(pk) <= first {
		return stats.ErrEmpty
	}
	out = out[:stride]
	for j := range out {
		x := observation(pk, target, first+j)
		// Mean holds the running sum until the walk ends.
		out[j] = stats.Summary{Min: x, Max: x}
	}
	for i, j := first, 0; i < len(pk); i++ {
		x := observation(pk, target, i)
		s := &out[j]
		s.N++
		s.Mean += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
		if j++; j == stride {
			j = 0
		}
	}
	for j := range out {
		out[j].Mean /= float64(out[j].N)
	}
	// StdDev, Skewness and Kurtosis hold the running second, third and
	// fourth central sums until the walk ends.
	for i, j := first, 0; i < len(pk); i++ {
		s := &out[j]
		d := observation(pk, target, i) - s.Mean
		d2 := d * d
		s.StdDev += d2
		s.Skewness += d2 * d
		s.Kurtosis += d2 * d2
		if j++; j == stride {
			j = 0
		}
	}
	for j := range out {
		s := &out[j]
		n := float64(s.N)
		m2, m3, m4 := s.StdDev/n, s.Skewness/n, s.Kurtosis/n
		s.StdDev = math.Sqrt(m2)
		s.Skewness, s.Kurtosis = 0, 0
		if m2 > 0 {
			s.Skewness = m3 / math.Pow(m2, 1.5)
			s.Kurtosis = m4 / (m2 * m2)
		}
	}
	return nil
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
