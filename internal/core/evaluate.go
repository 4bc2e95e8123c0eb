package core

import (
	"errors"
	"fmt"
	"sync"

	"netsample/internal/bins"
	"netsample/internal/dist"
	"netsample/internal/fanout"
	"netsample/internal/metrics"
	"netsample/internal/trace"
)

// Evaluator scores samples of one trace window against the window's full
// population for one target distribution, using one binning scheme.
// Scoring counts (ScoreCounts) needs only the per-bin population; batch
// scoring of selected packets (Scorer, Score, Replicate) builds a
// per-packet bin-index table on first use, so that scoring a sample is a
// fused pass: selection visits feed a small per-bin counts array and the
// metrics are computed straight from the counts — no index slice,
// observation slice, or re-classification per sample (DESIGN.md §4).
//
// Scoring follows the paper's goodness-of-fit orientation: the expected
// count in bin i is n·pᵢ, where n is the sample size and pᵢ the known
// parent-population proportion (no fitted parameters, so the χ² test has
// B-1 degrees of freedom). The cost and relative-cost metrics are instead
// computed on population scale — sample counts scaled up by N/n against
// the population counts — because they model absolute packet-count
// discrepancies (the charging example of Section 5.2).
//
// An Evaluator's population analysis is immutable after construction and
// it is safe for concurrent use; the worker-local mutable scoring state
// lives in Scorer.
type Evaluator struct {
	pop       *trace.Trace
	target    Target
	scheme    *bins.Edged
	popCounts []float64 // population count per bin
	popTotal  float64
	// index guards binIdx, the per-packet bin index (noObservation = no
	// observation), which the first NewScorer builds.
	index   sync.Once
	binIdx  []uint8
	scorers freeList[Scorer]
}

// noObservation marks a packet that contributes no observation to the
// target (index 0 of the interarrival target, which has no predecessor).
const noObservation = 0xFF

// ErrDegenerate reports a population whose observations all fall in bins
// with zero expected proportion, making χ²-family metrics undefined.
var ErrDegenerate = errors.New("core: population has empty bins; metrics undefined")

// ErrTooManyBins reports a scheme whose bin count exceeds the 255-bin
// capacity of the uint8 bin-index table.
var ErrTooManyBins = errors.New("core: scheme exceeds 255 bins")

// errEmptySample is returned by the scoring paths for samples with no
// observations.
var errEmptySample = errors.New("core: empty sample")

// NewEvaluator analyzes the population once and returns a ready scorer.
// It keeps O(bins) state: the per-packet bin-index table only batch
// scoring reads is built by the first NewScorer (see buildIndex).
func NewEvaluator(pop *trace.Trace, target Target, scheme *bins.Edged) (*Evaluator, error) {
	nb := scheme.NumBins()
	if nb > 255 {
		return nil, fmt.Errorf("%w: %d bins (%s)", ErrTooManyBins, nb, scheme.Name())
	}
	e := &Evaluator{
		pop:       pop,
		target:    target,
		scheme:    scheme,
		popCounts: make([]float64, nb),
	}
	e.count()
	for _, c := range e.popCounts {
		e.popTotal += c
	}
	if e.popTotal == 0 {
		return nil, ErrEmptyPopulation
	}
	for i, c := range e.popCounts {
		if c == 0 {
			// A bin the population never hits cannot anchor a χ² term;
			// the paper's bins are chosen to avoid this. Reject so the
			// caller picks a proper scheme for this population.
			return nil, fmt.Errorf("%w: bin %d (%s)", ErrDegenerate, i, scheme.Label(i))
		}
	}
	return e, nil
}

// count tallies the population's observations into popCounts. From
// fanout.MinPackets on, the packets are split into one contiguous range
// per worker, each tallied into its own integer counts and summed at
// the end. An interarrival is read at the later of its two packets, so
// a gap across a range edge is counted once, by the later range. The
// tallies are integers, so the counts are the same at any worker count.
func (e *Evaluator) count() {
	lo, n := firstObservation(e.target), e.pop.Len()
	var total [256]int
	if workers := fanout.Workers(n); workers > 1 {
		tallies := make([][256]int, workers)
		fanout.Run(workers, func(w int) {
			e.classify(lo+(n-lo)*w/workers, lo+(n-lo)*(w+1)/workers, nil, &tallies[w])
		})
		for w := range tallies {
			for b, c := range tallies[w] {
				total[b] += c
			}
		}
	} else {
		e.classify(lo, n, nil, &total)
	}
	for b := range e.popCounts {
		e.popCounts[b] = float64(total[b])
	}
}

// classify bins the observations of packets [lo, hi) in fixed-size
// batches through BinIndexBatch — a chunk is extracted into a scratch
// vector and binned branchlessly in one pass (the Edged fast path). The
// indices go to dst[lo:hi], the per-packet table, or with dst nil are
// tallied into counts chunk by chunk. IndexBatch is bit-identical to
// Index, so these are the indices of a per-packet scheme.Index loop.
//
//nslint:hotpath
func (e *Evaluator) classify(lo, hi int, dst []uint8, counts *[256]int) {
	const chunk = 512
	var xs [chunk]float64
	var buf [chunk]uint8
	pkts := e.pop.Packets
	for ; lo < hi; lo += chunk {
		end := min(lo+chunk, hi)
		if e.target == TargetInterarrival {
			for i := lo; i < end; i++ {
				xs[i-lo] = float64(pkts[i].Time - pkts[i-1].Time)
			}
		} else {
			for i := lo; i < end; i++ {
				xs[i-lo] = float64(pkts[i].Size)
			}
		}
		if dst != nil {
			e.BinIndexBatch(dst[lo:end], xs[:end-lo])
			continue
		}
		idx := buf[:end-lo]
		e.BinIndexBatch(idx, xs[:end-lo])
		for _, b := range idx {
			counts[b]++
		}
	}
}

// buildIndex fills the per-packet bin-index table batch scoring reads.
// It runs once per evaluator, under e.index: a caller that scores counts
// (ScoreCounts) never pays its byte per packet. The table reads the
// population, so an evaluator over a MapReader's trace must not start
// batch scoring after Close.
func (e *Evaluator) buildIndex() {
	binIdx := make([]uint8, e.pop.Len())
	if e.target == TargetInterarrival && len(binIdx) > 0 {
		binIdx[0] = noObservation
	}
	e.classify(firstObservation(e.target), len(binIdx), binIdx, nil)
	e.binIdx = binIdx
}

// BinIndexBatch fills dst[i] with the scheme's bin index for
// observation xs[i], for the whole batch in one branchless
// compare-accumulate pass (bins.Edged.IndexBatch). len(dst) must be at
// least len(xs). The indices fit uint8 by the evaluator's 255-bin
// construction cap, so batch consumers (NewEvaluator's classification
// pass, the batch scoring table) index count vectors straight from dst.
//
//nslint:hotpath
func (e *Evaluator) BinIndexBatch(dst []uint8, xs []float64) {
	e.scheme.IndexBatch(dst, xs)
}

// Population returns the trace the evaluator was built over.
func (e *Evaluator) Population() *trace.Trace { return e.pop }

// Target returns the evaluator's target distribution.
func (e *Evaluator) Target() Target { return e.target }

// NumBins returns the number of bins of the evaluator's scheme.
func (e *Evaluator) NumBins() int { return len(e.popCounts) }

// PopulationProportions returns the population's per-bin proportions.
func (e *Evaluator) PopulationProportions() []float64 {
	props := make([]float64, len(e.popCounts))
	for i, c := range e.popCounts {
		props[i] = c / e.popTotal
	}
	return props
}

// scorer borrows an idle worker-local Scorer, making one when every
// scorer is in use; release returns it.
func (e *Evaluator) scorer() *Scorer {
	if s := e.scorers.get(); s != nil {
		return s
	}
	return e.NewScorer()
}
func (e *Evaluator) release(s *Scorer) { e.scorers.put(s) }

// Score computes the full metric report for a sample given as indices
// into the evaluator's population trace. It is a thin wrapper over the
// fused counts path: the indices are folded through the bin-index table
// and scored with ScoreCounts' kernel.
func (e *Evaluator) Score(indices []int) (metrics.Report, error) {
	sc := e.scorer()
	sc.Reset()
	for _, idx := range indices {
		sc.Visit(idx)
	}
	rep, err := sc.Report()
	e.release(sc)
	return rep, err
}

// ScoreCounts scores a sample summarized as per-bin observation counts
// (counts[i] = sample observations in bin i, len(counts) = NumBins()).
// This is the fused scoring kernel: selection loops that accumulate bin
// counts directly — e.g. via SelectEach and Scorer.Visit — score without
// ever materializing indices or observations.
func (e *Evaluator) ScoreCounts(counts []float64) (metrics.Report, error) {
	if len(counts) != len(e.popCounts) {
		return metrics.Report{}, fmt.Errorf("core: ScoreCounts got %d bins, scheme has %d",
			len(counts), len(e.popCounts))
	}
	// The kernel's scratch lives on the stack (NumBins ≤ 255), so this
	// path neither allocates nor builds the per-packet index a Scorer
	// needs.
	var expected, scaled [255]float64
	return reportFromCounts(counts, e.popCounts, e.popTotal, expected[:len(counts)], scaled[:len(counts)])
}

// ScoreParent scores a sample's per-bin counts against those of the
// parent population it was drawn from, one count per bin of one scheme
// (at most 255 bins), with NewEvaluator's arithmetic: against a parent
// that hits every bin it scores as ScoreCounts on an evaluator over that
// parent. Only bins the parent hit are scored, so χ²'s degrees of freedom
// and φ's bin count shrink to match. An empty sample (errEmptySample) or
// a parent that hits fewer than two bins (ErrDegenerate) is unscored.
func ScoreParent(sample, parent []uint64) (metrics.Report, error) {
	// Stack scratch, as in ScoreCounts: compacted to the parent's bins.
	var observed, popCounts, expected, scaled [255]float64
	var popTotal float64
	m := 0
	for b, c := range parent {
		if c > 0 {
			observed[m], popCounts[m] = float64(sample[b]), float64(c)
			popTotal += popCounts[m]
			m++
		} else if sample[b] > 0 {
			return metrics.Report{}, fmt.Errorf("core: sample hits bin %d, which its parent never hit", b)
		}
	}
	if m < 2 {
		return metrics.Report{}, ErrDegenerate
	}
	return reportFromCounts(observed[:m], popCounts[:m], popTotal, expected[:m], scaled[:m])
}

// reportFromCounts is the shared scoring kernel: observed per-bin counts
// and the parent's per-bin counts and total in, full metric report out.
// expected and scaled are caller-provided scratch of the counts' length,
// so steady-state scoring allocates nothing. The arithmetic matches the
// historical Select+Observations+Count path operation for operation —
// expected is n times the proportion c/N — so reports are bit-identical
// to it.
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
	return reportMetrics(observed, expected, scaled, popCounts, n/popTotal)
}

// reportMetrics computes the seven-metric report shared by the binned
// and categorical kernels: the χ² family on sample scale (observed vs
// expected), the cost metrics on population scale (scaled vs popCounts),
// fraction being the sampled share of the population.
func reportMetrics(observed, expected, scaled, popCounts []float64, fraction float64) (metrics.Report, error) {
	if fraction > 1 {
		fraction = 1
	}
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

// Phi is a convenience returning only the φ score of a sample.
func (e *Evaluator) Phi(indices []int) (float64, error) {
	rep, err := e.Score(indices)
	if err != nil {
		return 0, err
	}
	return rep.Phi, nil
}

// Replication is one scored sample within a replication set.
type Replication struct {
	SampleSize int
	Report     metrics.Report
}

// Replicate runs a sampler n times with independent randomness (for
// random methods) and returns the scored replications. Deterministic
// methods produce identical replications unless the caller varies their
// parameters (see SystematicOffsets). Selection feeds bin counts
// directly, with one reused child RNG, so the per-replication loop
// allocates nothing.
func Replicate(e *Evaluator, s Sampler, n int, r *dist.RNG) ([]Replication, error) {
	out := make([]Replication, 0, n)
	sc := e.scorer()
	defer e.release(sc)
	child := dist.NewRNG(0)
	visit := sc.Visit
	for i := 0; i < n; i++ {
		r.SplitInto(child)
		sc.Reset()
		if err := s.SelectEach(e.pop, child, visit); err != nil {
			return nil, err
		}
		rep, err := sc.Report()
		if err != nil {
			return nil, err
		}
		out = append(out, Replication{SampleSize: sc.SampleSize(), Report: rep})
	}
	return out, nil
}

// SystematicOffsets scores systematic count-driven samples at `count`
// distinct start offsets spread evenly over [0, k), reproducing the
// paper's technique of varying the point at which sampling begins. It
// returns one replication per offset, via the fused zero-allocation
// scoring path.
func SystematicOffsets(e *Evaluator, k, count int, r *dist.RNG) ([]Replication, error) {
	if k < 1 {
		return nil, ErrBadGranularity
	}
	if count > k {
		count = k
	}
	out := make([]Replication, 0, count)
	sc := e.scorer()
	defer e.release(sc)
	visit := sc.Visit
	for i := 0; i < count; i++ {
		offset := i * k / count
		sc.Reset()
		if err := (SystematicCount{K: k, Offset: offset}).SelectEach(e.pop, r, visit); err != nil {
			return nil, err
		}
		rep, err := sc.Report()
		if err != nil {
			return nil, err
		}
		out = append(out, Replication{SampleSize: sc.SampleSize(), Report: rep})
	}
	return out, nil
}

// PhiValues extracts the φ scores of a replication set.
func PhiValues(reps []Replication) []float64 {
	out := make([]float64, len(reps))
	for i, rep := range reps {
		out[i] = rep.Report.Phi
	}
	return out
}

// MeanPhi returns the mean φ of a replication set, the y-axis of the
// paper's Figures 7-11.
func MeanPhi(reps []Replication) float64 {
	if len(reps) == 0 {
		return 0
	}
	var sum float64
	for _, rep := range reps {
		sum += rep.Report.Phi
	}
	return sum / float64(len(reps))
}
