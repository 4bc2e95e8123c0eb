package experiment

import (
	"fmt"
	"io"

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
		Granularities: []int{1, 10, 50, 250, 1000}}

	// Every feed keys the sketch by the pair's label (Top breaks count
	// ties by key bytes, so the spelling is output); the labels are
	// rendered once per distinct pair across all of them.
	labels := make(map[uint64]string)
	truth, err := topPairs(win, nil, 1, sketch, topN, labels)
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
			if top, err = topPairs(win, idx, k, sketch, topN, labels); err != nil {
				return nil, err
			}
		}
		hits := 0
		for _, e := range top {
			if trueSet[e.Key] {
				hits++
			}
		}
		out.Overlap = append(out.Overlap, float64(hits)/float64(topN))
	}
	return out, nil
}

// topPairs feeds either the whole window (idx nil) or the selected
// packets into a Space-Saving sketch keyed by network-pair label and
// returns the top n. labels caches each pair's label by pair key.
func topPairs(win *trace.Trace, idx []int, weight, sketchSize, n int, labels map[uint64]string) ([]nnstat.Entry, error) {
	tk, err := nnstat.NewTopK(sketchSize)
	if err != nil {
		return nil, err
	}
	var cat core.NetPairCategorizer
	record := func(p trace.Packet) {
		key, ok := cat.Key(p)
		if !ok {
			return
		}
		label, seen := labels[key]
		if !seen {
			label = cat.Label(key)
			labels[key] = label
		}
		tk.Add(label, uint64(weight))
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

// ID implements Result.
func (r *HeavyHitterResult) ID() string { return "ext-heavyhitters" }

// Title implements Result.
func (r *HeavyHitterResult) Title() string {
	return fmt.Sprintf("top-%d src-dst pairs surviving sampling (space-saving sketch of %d)",
		r.TopN, r.SketchSize)
}

// WriteText implements Result.
func (r *HeavyHitterResult) WriteText(w io.Writer) error {
	if err := header(w, r); err != nil {
		return err
	}
	fmt.Fprintf(w, "%8s %12s\n", "1/frac", "topN-overlap")
	for i := range r.Granularities {
		if _, err := fmt.Fprintf(w, "%8d %12.2f\n", r.Granularities[i], r.Overlap[i]); err != nil {
			return err
		}
	}
	return nil
}

// Table implements Result.
func (r *HeavyHitterResult) Table() ([]string, [][]string) {
	cols := []string{"granularity", "overlap"}
	var rows [][]string
	for i := range r.Granularities {
		rows = append(rows, []string{d(r.Granularities[i]), f(r.Overlap[i])})
	}
	return cols, rows
}
