package core

import (
	"sync"

	"netsample/internal/metrics"
)

// Scorer is the worker-local mutable state of the fused scoring path:
// a per-bin observation counts array fed directly by selection visits,
// plus the expected/scaled scratch the metric kernel needs. One Scorer
// per goroutine or loop; the parent Evaluator stays immutable and
// shared. The zero Scorer is not valid; obtain one from NewScorer.
//
// Usage pattern:
//
//	sc := ev.NewScorer()
//	for each replication {
//		sc.Reset()
//		sampler.SelectEach(tr, rng, sc.Visit)
//		rep, err := sc.Report()
//	}
//
// Steady-state, that loop performs zero heap allocations.
type Scorer struct {
	e        *Evaluator
	counts   []float64
	expected []float64
	scaled   []float64
	selected int
}

// NewScorer returns a ready-to-use Scorer bound to e. The first call
// builds e's per-packet bin-index table, which Visit reads.
func (e *Evaluator) NewScorer() *Scorer {
	e.index.Do(e.buildIndex)
	nb := len(e.popCounts)
	return &Scorer{
		e:        e,
		counts:   make([]float64, nb),
		expected: make([]float64, nb),
		scaled:   make([]float64, nb),
	}
}

// Reset clears the accumulated sample so the Scorer can score afresh.
func (s *Scorer) Reset() {
	for i := range s.counts {
		s.counts[i] = 0
	}
	s.selected = 0
}

// Visit records the selection of packet i. Packets that contribute no
// observation to the target (the first packet of the interarrival
// target) still count toward SampleSize, matching the legacy
// Select+Score accounting where sample size was len(indices).
//
//nslint:hotpath
func (s *Scorer) Visit(i int) {
	s.selected++
	if b := s.e.binIdx[i]; b != noObservation {
		s.counts[b]++
	}
}

// SampleSize returns the number of packets visited since the last Reset.
func (s *Scorer) SampleSize() int { return s.selected }

// Counts returns a copy of the accumulated per-bin observation counts.
func (s *Scorer) Counts() []float64 {
	return append([]float64(nil), s.counts...)
}

// Report scores the accumulated sample. It does not reset the Scorer.
func (s *Scorer) Report() (metrics.Report, error) {
	return reportFromCounts(s.counts, s.e.popCounts, s.e.popTotal, s.expected, s.scaled)
}

// freeList is an evaluator's stock of idle scorers: scratch a scoring
// call borrows and returns, so steady-state scoring allocates nothing
// under any number of concurrent callers. It is deliberately not a
// sync.Pool. The runtime keeps every pool that has been used on a
// global list and holds its items through two collections, and a
// scorer points at its evaluator, which points at its population: a
// pooled scorer keeps a dead trace reachable — the paper suite's
// FIX-West hour, 53 MB — after the last reference to it is gone. A
// list the evaluator owns dies with the evaluator, and a collection
// does not empty it.
type freeList[T any] struct {
	mu   sync.Mutex
	free []*T
}

// get pops an idle item, or returns nil when there is none.
func (l *freeList[T]) get() *T {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n := len(l.free); n > 0 {
		s := l.free[n-1]
		l.free = l.free[:n-1]
		return s
	}
	return nil
}

// put returns an item to the list.
func (l *freeList[T]) put(s *T) {
	l.mu.Lock()
	l.free = append(l.free, s)
	l.mu.Unlock()
}
