package core

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"netsample/internal/dist"
	"netsample/internal/metrics"
	"netsample/internal/packet"
	"netsample/internal/trace"
)

// This file implements the extension the paper's conclusion sketches:
// "Our methodology can be extended and applied to characterizations of
// network traffic that are based on proportions, e.g., TCP/UDP port
// distribution. More difficult would be to characterize the goodness of
// fit of the sampled source-destination traffic matrix, mainly because
// of its large size and because many traffic pairs generate small
// amounts of traffic during typical sampling intervals."
//
// A Categorizer maps packets to discrete categories; the
// CategoricalEvaluator scores a sample's category proportions against
// the population's with the same χ²/φ machinery as the binned targets.
// Cells whose expected count under the sample would fall below a
// threshold are folded into a rest category, the standard remedy for the
// sparse-cell problem the paper anticipates for the traffic matrix.

// Categorizer assigns packets to discrete categories by integer key, so
// that classifying a packet builds no string; a key is rendered for
// output once per distinct category.
type Categorizer interface {
	// Name identifies the characterization in output.
	Name() string
	// Key returns the packet's category. ok=false excludes the packet
	// from the characterization (e.g. non-TCP/UDP packets from a port
	// distribution).
	Key(p trace.Packet) (key uint64, ok bool)
	// Label renders a key returned by Key. Distinct keys have distinct
	// labels; cells are ordered by label.
	Label(key uint64) string
}

// PortCategorizer maps TCP/UDP packets to the well-known service of
// their destination (or source) port, with everything else as "other".
// The key is the deciding well-known port, 0 for "other".
type PortCategorizer struct{}

// Name implements Categorizer.
func (PortCategorizer) Name() string { return "port-distribution" }

// Key implements Categorizer.
func (PortCategorizer) Key(p trace.Packet) (uint64, bool) {
	if p.Protocol != packet.ProtoTCP && p.Protocol != packet.ProtoUDP {
		return 0, false
	}
	if packet.PortName(p.DstPort) != "other" {
		return uint64(p.DstPort), true
	}
	if packet.PortName(p.SrcPort) != "other" {
		return uint64(p.SrcPort), true
	}
	return 0, true
}

// Label implements Categorizer.
func (PortCategorizer) Label(key uint64) string { return packet.PortName(uint16(key)) }

// NetPairCategorizer maps packets to their classful source→destination
// network pair — the traffic matrix characterization. The key packs the
// source network number into the high 32 bits and the destination's
// into the low 32.
type NetPairCategorizer struct{}

// Name implements Categorizer.
func (NetPairCategorizer) Name() string { return "src-dst-matrix" }

// Key implements Categorizer.
func (NetPairCategorizer) Key(p trace.Packet) (uint64, bool) {
	return uint64(p.Src.NetworkNumber().Uint32())<<32 | uint64(p.Dst.NetworkNumber().Uint32()), true
}

// Label implements Categorizer.
func (NetPairCategorizer) Label(key uint64) string {
	return packet.AddrFrom(uint32(key>>32)).String() + ">" + packet.AddrFrom(uint32(key)).String()
}

// RestCategory is the fold target for sparse cells.
const RestCategory = "(rest)"

// excludedCell marks a packet the categorizer excluded.
const excludedCell = -1

// CategoricalEvaluator scores samples on a discrete characterization.
// Like Evaluator it classifies the population once: construction
// resolves every packet to its folded cell in a per-packet table, and
// scoring a sample is a counts pass over that table — the categorizer
// is never consulted again. Immutable after construction and safe for
// concurrent use; the mutable scoring state is a catScorer borrowed from
// the evaluator's free list.
type CategoricalEvaluator struct {
	pop        *trace.Trace
	categories []string // folded category labels, sorted, (rest) last if present
	cell       []int32  // per-packet index into categories; excludedCell = no category
	popCounts  []float64
	popTotal   float64
	scorers    freeList[catScorer]
}

// ErrNoCategories reports a population with no categorizable packets.
var ErrNoCategories = errors.New("core: population has no categorizable packets")

// errNoCategorizable is returned when scoring a sample none of whose
// packets the categorizer kept.
var errNoCategorizable = errors.New("core: sample has no categorizable packets")

// NewCategoricalEvaluator analyzes the population. Categories whose
// population share is below minShare (e.g. 0.001) are folded into
// RestCategory; pass 0 to keep every cell.
func NewCategoricalEvaluator(pop *trace.Trace, cat Categorizer, minShare float64) (*CategoricalEvaluator, error) {
	if minShare < 0 || minShare >= 1 {
		return nil, fmt.Errorf("core: minShare %v outside [0,1)", minShare)
	}
	// Pass 1: number the distinct keys in first-seen order, leaving each
	// packet's key number in the table.
	cell := make([]int32, len(pop.Packets))
	ids := make(map[uint64]int32) // key → key number
	var raw []float64             // key number → population count
	var total float64
	for i, p := range pop.Packets {
		key, ok := cat.Key(p)
		if !ok {
			cell[i] = excludedCell
			continue
		}
		id, seen := ids[key]
		if !seen {
			id = int32(len(raw))
			ids[key] = id
			raw = append(raw, 0)
		}
		cell[i] = id
		raw[id]++
		total++
	}
	if total == 0 {
		return nil, ErrNoCategories
	}
	// Fold, then order the kept cells by label: cell order is the
	// metrics' float summation order, so it is part of the output (and
	// the sort is what makes the map walk below deterministic).
	type kept struct {
		label string
		id    int32
	}
	var keep []kept
	var rest float64
	for key, id := range ids {
		if c := raw[id]; c/total < minShare {
			rest += c
		} else {
			keep = append(keep, kept{cat.Label(key), id})
		}
	}
	slices.SortFunc(keep, func(a, b kept) int { return strings.Compare(a.label, b.label) })
	e := &CategoricalEvaluator{pop: pop, cell: cell, popTotal: total}
	restCell := int32(len(keep))
	toCell := make([]int32, len(raw))
	for i := range toCell {
		toCell[i] = restCell
	}
	for i, k := range keep {
		toCell[k.id] = int32(i)
		e.categories = append(e.categories, k.label)
		e.popCounts = append(e.popCounts, raw[k.id])
	}
	if rest > 0 {
		e.categories = append(e.categories, RestCategory)
		e.popCounts = append(e.popCounts, rest)
	}
	if len(e.categories) < 2 {
		return nil, fmt.Errorf("%w: fewer than two categories after folding", ErrNoCategories)
	}
	// Pass 2: rewrite key numbers to folded cell indices.
	for i, id := range cell {
		if id != excludedCell {
			cell[i] = toCell[id]
		}
	}
	return e, nil
}

// NumCells returns the number of scored cells (after folding).
func (e *CategoricalEvaluator) NumCells() int { return len(e.categories) }

// catScorer is the worker-local mutable state of categorical scoring:
// per-cell observation counts fed by selection visits, plus the
// expected/scaled scratch of the metric kernel. The categorical
// counterpart of Scorer.
type catScorer struct {
	e        *CategoricalEvaluator
	observed []float64
	expected []float64
	scaled   []float64
	selected int
}

// scorer borrows an idle catScorer, making one when every scorer is in
// use; release returns it.
func (e *CategoricalEvaluator) scorer() *catScorer {
	if s := e.scorers.get(); s != nil {
		return s
	}
	n := len(e.categories)
	return &catScorer{e: e, observed: make([]float64, n), expected: make([]float64, n), scaled: make([]float64, n)}
}
func (e *CategoricalEvaluator) release(s *catScorer) { e.scorers.put(s) }

// reset clears the accumulated sample.
func (s *catScorer) reset() {
	clear(s.observed)
	s.selected = 0
}

// visit records the selection of packet i. Packets the categorizer
// excluded still count toward the sample size, not toward any cell.
//
//nslint:hotpath
func (s *catScorer) visit(i int) {
	s.selected++
	if c := s.e.cell[i]; c != excludedCell {
		s.observed[c]++
	}
}

// report scores the accumulated sample.
func (s *catScorer) report() (metrics.Report, error) {
	e := s.e
	var n float64
	for _, c := range s.observed {
		n += c
	}
	if n == 0 {
		return metrics.Report{}, errNoCategorizable
	}
	scale := e.popTotal / n
	for i, c := range s.observed {
		s.expected[i] = n * e.popCounts[i] / e.popTotal
		s.scaled[i] = c * scale
	}
	return reportMetrics(s.observed, s.expected, s.scaled, e.popCounts, n/e.popTotal)
}

// ReplicateCategorical runs a sampler n times against a categorical
// evaluator, mirroring Replicate for the binned targets: selection
// visits feed the cell counts directly, with one reused child RNG, so
// the per-replication loop allocates nothing.
func ReplicateCategorical(e *CategoricalEvaluator, s Sampler, n int, r *dist.RNG) ([]Replication, error) {
	out := make([]Replication, 0, n)
	sc := e.scorer()
	defer e.release(sc)
	child := dist.NewRNG(0)
	visit := sc.visit
	for i := 0; i < n; i++ {
		r.SplitInto(child)
		sc.reset()
		if err := s.SelectEach(e.pop, child, visit); err != nil {
			return nil, err
		}
		rep, err := sc.report()
		if err != nil {
			return nil, err
		}
		out = append(out, Replication{SampleSize: sc.selected, Report: rep})
	}
	return out, nil
}
