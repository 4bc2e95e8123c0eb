package core

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"netsample/internal/dist"
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
// output once per distinct category, appended to a caller's buffer.
type Categorizer interface {
	// Name identifies the characterization in output.
	Name() string
	// Key returns the packet's category. ok=false excludes the packet
	// from the characterization (e.g. non-TCP/UDP packets from a port
	// distribution).
	Key(p trace.Packet) (key uint64, ok bool)
	// AppendLabel appends the label of a key returned by Key to dst and
	// returns the extended slice. Distinct keys have distinct labels;
	// cells are ordered by label.
	AppendLabel(dst []byte, key uint64) []byte
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

// AppendLabel implements Categorizer.
func (PortCategorizer) AppendLabel(dst []byte, key uint64) []byte {
	return append(dst, packet.PortName(uint16(key))...)
}

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

// AppendLabel implements Categorizer: "src>dst" in dotted quads.
func (NetPairCategorizer) AppendLabel(dst []byte, key uint64) []byte {
	dst = packet.AddrFrom(uint32(key >> 32)).AppendTo(dst)
	dst = append(dst, '>')
	return packet.AddrFrom(uint32(key)).AppendTo(dst)
}

// RestCategory is the fold target for sparse cells.
const RestCategory = "(rest)"

// CategoricalEvaluator scores samples on a discrete characterization.
// Like Evaluator it classifies the population once: construction
// resolves every packet to its folded cell in the per-packet cell
// table (-1 for a packet the categorizer excluded), and scoring a
// sample is a counts pass over that table — the categorizer is never
// consulted again. Immutable after construction and safe for
// concurrent use.
type CategoricalEvaluator struct {
	cellTable[int32]
	categories []string // folded category labels, sorted, (rest) last if present
}

// ErrNoCategories reports a population with no categorizable packets.
var ErrNoCategories = errors.New("core: population has no categorizable packets")

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
			cell[i] = -1
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
	// the sort is what makes the map walk below deterministic). The kept
	// labels are appended to one buffer that becomes one string, and
	// each category is a slice of it.
	folded := func(c float64) bool { return c/total < minShare }
	kept := 0
	for _, c := range raw {
		if !folded(c) {
			kept++
		}
	}
	type keptCell struct {
		off, end int // the label is labels[off:end]
		id       int32
	}
	keep := make([]keptCell, 0, kept)
	var buf []byte
	var rest float64
	for key, id := range ids {
		if c := raw[id]; folded(c) {
			rest += c
		} else {
			off := len(buf)
			buf = cat.AppendLabel(buf, key)
			keep = append(keep, keptCell{off, len(buf), id})
		}
	}
	labels := string(buf)
	slices.SortFunc(keep, func(a, b keptCell) int { return strings.Compare(labels[a.off:a.end], labels[b.off:b.end]) })
	e := &CategoricalEvaluator{cellTable: cellTable[int32]{pop: pop, cells: cell, popTotal: total,
		popCounts: make([]float64, 0, kept+1)}, categories: make([]string, 0, kept+1)}
	restCell := int32(len(keep))
	toCell := make([]int32, len(raw))
	for i := range toCell {
		toCell[i] = restCell
	}
	for i, k := range keep {
		toCell[k.id] = int32(i)
		e.categories = append(e.categories, labels[k.off:k.end])
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
		if id >= 0 {
			cell[i] = toCell[id]
		}
	}
	return e, nil
}

// NumCells returns the number of scored cells (after folding).
func (e *CategoricalEvaluator) NumCells() int { return len(e.categories) }

// ReplicateCategorical runs a sampler n times against a categorical
// evaluator, as Replicate does for the binned targets.
func ReplicateCategorical(e *CategoricalEvaluator, s Sampler, n int, r *dist.RNG) ([]Replication, error) {
	return e.resample(s, n, r)
}
