// Package core implements the paper's primary contribution: the five
// packet-sampling methods of Section 4 and the evaluation methodology of
// Sections 5–7 that scores a sample against its parent population.
//
// Sampling methods (Figure 2):
//
//   - systematic, packet-driven: every k-th packet, with a configurable
//     starting offset (the paper varies the start to build replications);
//   - stratified random, packet-driven: one packet chosen uniformly from
//     each consecutive bucket of k packets;
//   - simple random: n = ⌈N/k⌉ packets chosen uniformly without
//     replacement from the whole population;
//   - systematic, timer-driven: a periodic timer; at each expiry the next
//     packet to arrive is selected;
//   - stratified random, timer-driven: one uniformly random instant per
//     time bucket; the next packet to arrive after it is selected.
//
// A sample is a sorted list of indices into the parent trace. Each
// selected packet contributes two observations: its size, and its
// interarrival time measured against its predecessor in the full packet
// stream (the quantity a monitor with a last-packet timestamp register
// observes when it samples).
//
// The Evaluator bins observations with a bins.Edged scheme and scores the
// sample with the metrics package, exactly as the paper does: expected
// counts come from the known parent population (no fitted parameters),
// and the φ coefficient is the headline score.
package core

import (
	"errors"
	"fmt"

	"netsample/internal/dist"
	"netsample/internal/trace"
)

// Target selects which characterization distribution is assessed.
type Target int

// The paper's two analysis targets.
const (
	TargetSize Target = iota
	TargetInterarrival
)

// String names the target for experiment output.
func (t Target) String() string {
	switch t {
	case TargetSize:
		return "packet-size"
	case TargetInterarrival:
		return "interarrival"
	default:
		return fmt.Sprintf("target-%d", int(t))
	}
}

// Errors shared by the sampling methods.
var (
	ErrEmptyPopulation = errors.New("core: empty population")
	ErrBadGranularity  = errors.New("core: granularity must be >= 1")
	ErrBadPeriod       = errors.New("core: timer period must be positive")
)

// Sampler selects a subset of a trace's packets.
type Sampler interface {
	// Name identifies the method in experiment output, e.g.
	// "systematic/packet".
	Name() string
	// Select returns the sorted indices of the selected packets. The RNG
	// drives any randomness; deterministic methods ignore it.
	Select(tr *trace.Trace, r *dist.RNG) ([]int, error)
	// SelectEach calls yield once per selected packet, in increasing
	// index order, consuming exactly the randomness Select does; Select
	// is SelectEach collected into a slice. Nothing is materialized, which
	// is what makes the fused selection→scoring path (Evaluator.NewScorer)
	// allocation-free.
	SelectEach(tr *trace.Trace, r *dist.RNG, yield func(i int)) error
}

// Observations extracts the target observations of the selected packets.
// For TargetSize, observation i is the size of packet indices[i]. For
// TargetInterarrival it is the gap between the packet and its
// predecessor in the full trace; index 0 (which has no predecessor) is
// skipped.
func Observations(tr *trace.Trace, target Target, indices []int) []float64 {
	out := make([]float64, 0, len(indices))
	for _, idx := range indices {
		switch target {
		case TargetInterarrival:
			if idx == 0 {
				continue
			}
			out = append(out, float64(tr.Packets[idx].Time-tr.Packets[idx-1].Time))
		default:
			out = append(out, float64(tr.Packets[idx].Size))
		}
	}
	return out
}

// PeriodForGranularity converts a desired sampling granularity k into
// the timer period (µs) that yields approximately the same sampling
// fraction on the given trace: k times the trace's mean interarrival
// time. It fails on traces with fewer than two packets or zero span.
func PeriodForGranularity(tr *trace.Trace, k float64) (int64, error) {
	var span int64
	if n := tr.Len(); n > 0 {
		span = tr.Packets[n-1].Time - tr.Packets[0].Time
	}
	return PeriodForSpan(tr.Len(), span, k)
}

// PeriodForSpan is PeriodForGranularity's formula on a population known
// only by its record count and the span from its first to its last
// timestamp — what a stream knows in O(1) (trace.MapReader.Span): k
// times the mean gap span/(records-1), at least 1 µs. A k below 1, or
// one whose period does not fit in int64 µs, is ErrBadGranularity.
func PeriodForSpan(records int, spanUS int64, k float64) (int64, error) {
	if !(k >= 1) {
		return 0, ErrBadGranularity
	}
	if records < 2 || spanUS <= 0 {
		return 0, ErrEmptyPopulation
	}
	p := k * (float64(spanUS) / float64(records-1)) // k × the mean gap
	// 1<<63 is exactly representable; every float below it converts.
	if p >= 1<<63 {
		return 0, fmt.Errorf("%w: k=%g gives a %.3g µs period, past int64", ErrBadGranularity, k, p)
	}
	return max(int64(p), 1), nil
}
