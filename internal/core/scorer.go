package core

import (
	"sync"

	"netsample/internal/dist"
	"netsample/internal/metrics"
	"netsample/internal/trace"
)

// cell is the width of a per-packet cell index: uint8 for the binned
// targets (at most 255 bins), int32 for categorical ones.
type cell interface{ uint8 | int32 }

// cellTable is the population half of batch scoring, shared by the
// binned and the categorical evaluator: each packet's cell, and the
// population's count per cell. A packet whose cell is all ones
// (0xFF, or -1) contributes no observation: the interarrival target's
// first packet, or one the categorizer excluded. Immutable once the
// cells are built; scorers borrowed from its free list hold the
// mutable state.
type cellTable[C cell] struct {
	pop       *trace.Trace
	popCounts []float64 // population count per cell
	popTotal  float64
	// cells is the per-packet table. With build set, the first scorer
	// fills it, once, under built; without, the constructor did.
	cells   []C
	build   func() []C
	built   sync.Once
	scorers freeList[scorer[C]]
}

// scorer is the worker-local mutable state of batch scoring: per-cell
// observation counts fed by selection visits, plus the expected/scaled
// scratch of the metric kernel. One scorer per goroutine or loop.
type scorer[C cell] struct {
	t        *cellTable[C]
	counts   []float64
	expected []float64
	scaled   []float64
	selected int
	visit    func(int) // Visit, bound once so a replication loop passes it without allocating
}

// Scorer is the binned targets' scorer, the fused scoring path's
// worker-local state; the parent Evaluator stays immutable and shared.
// The zero Scorer is not valid; obtain one from NewScorer.
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
type Scorer = scorer[uint8]

// newScorer returns a scorer over t, building t's cells first if they
// are still to be built.
func (t *cellTable[C]) newScorer() *scorer[C] {
	if t.build != nil {
		t.built.Do(func() { t.cells = t.build() })
	}
	n := len(t.popCounts)
	s := &scorer[C]{t: t, counts: make([]float64, n), expected: make([]float64, n), scaled: make([]float64, n)}
	s.visit = s.Visit
	return s
}

// borrow takes an idle scorer from the free list, making one when every
// scorer is in use; the caller puts it back on t.scorers.
func (t *cellTable[C]) borrow() *scorer[C] {
	if s := t.scorers.get(); s != nil {
		return s
	}
	return t.newScorer()
}

// Reset clears the accumulated sample so the scorer can score afresh.
func (s *scorer[C]) Reset() {
	clear(s.counts)
	s.selected = 0
}

// Visit records the selection of packet i. A packet that contributes no
// observation still counts toward SampleSize: the sampler did select it.
//
//nslint:hotpath
func (s *scorer[C]) Visit(i int) {
	s.selected++
	if c := s.t.cells[i]; c != ^C(0) {
		s.counts[c]++
	}
}

// SampleSize returns the number of packets visited since the last Reset.
func (s *scorer[C]) SampleSize() int { return s.selected }

// Counts returns a copy of the accumulated per-cell observation counts.
func (s *scorer[C]) Counts() []float64 {
	return append([]float64(nil), s.counts...)
}

// Report scores the accumulated sample. It does not reset the scorer.
func (s *scorer[C]) Report() (metrics.Report, error) {
	return reportFromCounts(s.counts, s.t.popCounts, s.t.popTotal, s.expected, s.scaled)
}

// Score computes the full metric report for a sample given as indices
// into the population trace: the indices are folded through the cell
// table and scored with the one kernel.
func (t *cellTable[C]) Score(indices []int) (metrics.Report, error) {
	sc := t.borrow()
	sc.Reset()
	for _, idx := range indices {
		sc.Visit(idx)
	}
	rep, err := sc.Report()
	t.scorers.put(sc)
	return rep, err
}

// Replication is one scored sample within a replication set.
type Replication struct {
	SampleSize int
	Report     metrics.Report
}

// replicate is the one replication loop: for i in [0, n) it resets a
// borrowed scorer, lets sample(i, visit) select replication i's packets,
// and scores them. The loop allocates only its result.
func (t *cellTable[C]) replicate(n int, sample func(i int, visit func(int)) error) ([]Replication, error) {
	sc := t.borrow()
	defer t.scorers.put(sc)
	out := make([]Replication, 0, n)
	for i := 0; i < n; i++ {
		sc.Reset()
		if err := sample(i, sc.visit); err != nil {
			return nil, err
		}
		rep, err := sc.Report()
		if err != nil {
			return nil, err
		}
		out = append(out, Replication{SampleSize: sc.selected, Report: rep})
	}
	return out, nil
}

// resample replicates s n times with independent randomness: each
// replication reseeds one child of r in place, so the child streams are
// those r.Split would give.
func (t *cellTable[C]) resample(s Sampler, n int, r *dist.RNG) ([]Replication, error) {
	child := dist.NewRNG(0)
	return t.replicate(n, func(_ int, visit func(int)) error {
		r.SplitInto(child)
		return s.SelectEach(t.pop, child, visit)
	})
}

// reportFromCounts is the one scoring kernel: observed per-cell counts
// and the parent's per-cell counts and total in, full metric report out.
// It follows the paper's goodness-of-fit orientation: the expected count
// in cell i is n·(cᵢ/N), n the sample size and cᵢ/N the known parent
// proportion (no fitted parameters, so the χ² test has B-1 degrees of
// freedom). The cost metrics are instead on population scale — sample
// counts scaled up by N/n against the parent's — because they model
// absolute packet-count discrepancies (the charging example of Section
// 5.2). expected and scaled are caller-provided scratch of the counts'
// length, so steady-state scoring allocates nothing.
func reportFromCounts(observed, popCounts []float64, popTotal float64, expected, scaled []float64) (metrics.Report, error) {
	var n float64
	for _, c := range observed {
		n += c
	}
	if n == 0 {
		return metrics.Report{}, errEmptySample
	}
	scale := popTotal / n
	for i, c := range observed {
		expected[i] = n * (popCounts[i] / popTotal)
		scaled[i] = c * scale
	}
	fraction := min(n/popTotal, 1)
	var rep metrics.Report
	var err error
	if rep.ChiSquare, err = metrics.ChiSquare(observed, expected); err != nil {
		return metrics.Report{}, err
	}
	if rep.Significance, err = metrics.Significance(observed, expected, 0); err != nil {
		return metrics.Report{}, err
	}
	if rep.Cost, err = metrics.Cost(scaled, popCounts); err != nil {
		return metrics.Report{}, err
	}
	if rep.RelativeCost, err = metrics.RelativeCost(scaled, popCounts, fraction); err != nil {
		return metrics.Report{}, err
	}
	if rep.PaxsonX2, err = metrics.PaxsonX2(observed, expected); err != nil {
		return metrics.Report{}, err
	}
	if rep.AvgNormDev, err = metrics.AvgNormDeviation(observed, expected); err != nil {
		return metrics.Report{}, err
	}
	if rep.Phi, err = metrics.Phi(observed, expected); err != nil {
		return metrics.Report{}, err
	}
	return rep, nil
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
