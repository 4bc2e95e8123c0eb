package experiment

import (
	"fmt"

	"netsample/internal/core"
	"netsample/internal/nnstat"
	"netsample/internal/trace"
)

// HeavyHitterResult answers the operational question behind the
// source-destination matrix: even if the full matrix samples poorly
// (ext-matrix), do its *heavy* cells survive sampling? For each
// granularity it compares the top-N network pairs of the full trace
// against the top-N computed from a 1-in-k systematic sample through a
// bounded Space-Saving sketch, reporting the overlap fraction.
type HeavyHitterResult struct {
	table
	TopN          int
	SketchSize    int
	Granularities []int
	Overlap       []float64 // |sampled-topN ∩ true-topN| / N
}

// HeavyHitters runs the sweep on the first 1024 s of the trace.
func HeavyHitters(tr *trace.Trace) (*HeavyHitterResult, error) {
	win := window(tr, 1024)
	const topN = 10
	const sketch = 256
	out := &HeavyHitterResult{TopN: topN, SketchSize: sketch,
		Granularities: []int{1, 10, 50, 250, 1000},
		table: newTable("ext-heavyhitters", fmt.Sprintf("top-%d src-dst pairs surviving sampling (space-saving sketch of %d)",
			topN, sketch), granularity, column{"overlap", "topN-overlap", "%12.2f"})}

	// Every feed keys the sketch by the pair's label (Top breaks count
	// ties by key bytes, so the spelling is output); the labels are
	// rendered once per distinct pair across all of them.
	labels := pairLabels{spans: make(map[uint64][2]int)}
	truth, err := topPairs(win, nil, 1, sketch, topN, &labels)
	if err != nil {
		return nil, err
	}
	trueSet := map[string]bool{}
	for _, e := range truth {
		trueSet[e.Key] = true
	}
	for _, k := range out.Granularities {
		top := truth // k = 1 feeds the whole window at weight 1: the truth sketch itself
		if k > 1 {
			idx, err := core.SystematicCount{K: k}.Select(win, nil)
			if err != nil {
				return nil, err
			}
			if top, err = topPairs(win, idx, k, sketch, topN, &labels); err != nil {
				return nil, err
			}
		}
		hits := 0
		for _, e := range top {
			if trueSet[e.Key] {
				hits++
			}
		}
		overlap := float64(hits) / float64(topN)
		out.Overlap = append(out.Overlap, overlap)
		out.addRow(integer(k), float(overlap))
	}
	return out, nil
}

// pairLabels holds the label of every network pair seen, rendered once,
// in one byte arena indexed by pair key.
type pairLabels struct {
	arena []byte
	spans map[uint64][2]int // pair key → the label's arena[start:end]
}

// of returns key's label, appending it to the arena on first sight.
func (l *pairLabels) of(key uint64) []byte {
	s, seen := l.spans[key]
	if !seen {
		s[0] = len(l.arena)
		l.arena = core.NetPairCategorizer{}.AppendLabel(l.arena, key)
		s[1] = len(l.arena)
		l.spans[key] = s
	}
	return l.arena[s[0]:s[1]]
}

// topPairs feeds either the whole window (idx nil) or the selected
// packets into a Space-Saving sketch keyed by network-pair label and
// returns the top n. labels caches each pair's label by pair key.
func topPairs(win *trace.Trace, idx []int, weight, sketchSize, n int, labels *pairLabels) ([]nnstat.Entry, error) {
	tk, err := nnstat.NewTopK(sketchSize)
	if err != nil {
		return nil, err
	}
	var cat core.NetPairCategorizer
	record := func(p trace.Packet) {
		if key, ok := cat.Key(p); ok {
			tk.AddBytes(labels.of(key), uint64(weight))
		}
	}
	if idx == nil {
		for _, p := range win.Packets {
			record(p)
		}
	} else {
		for _, i := range idx {
			record(win.Packets[i])
		}
	}
	return tk.Top(n), nil
}
