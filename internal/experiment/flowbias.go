package experiment

import (
	"fmt"
	"io"

	"netsample/internal/core"
	"netsample/internal/flows"
	"netsample/internal/trace"
)

// FlowBiasResult quantifies what packet sampling does to flow-level
// views — the problem the paper's conclusion gestures at for the
// traffic matrix and that the NetFlow era made famous: a 1-in-k sample
// detects only the flows it happens to hit, so flow counts collapse and
// the surviving flows skew large.
type FlowBiasResult struct {
	TrueFlows     int
	TrueMeanPkts  float64
	Granularities []int
	DetectedFrac  []float64 // detected flows / true flows
	MeanPktsScale []float64 // (sampled mean packets × k) / true mean packets
}

// FlowBias runs the sweep on the first 1024 s of the trace with a 2 s
// idle timeout (scaled by k on the thinned traces so flow identity
// is preserved).
func FlowBias(tr *trace.Trace) (*FlowBiasResult, error) {
	win := window(tr, 1024)
	const timeout = 2_000_000
	full, err := flows.Decompose(win, timeout)
	if err != nil {
		return nil, err
	}
	fullSum := flows.Summarize(full)
	out := &FlowBiasResult{
		TrueFlows:     fullSum.Flows,
		TrueMeanPkts:  fullSum.MeanPackets,
		Granularities: []int{1, 10, 50, 250, 1000},
	}
	for _, k := range out.Granularities {
		var sub *trace.Trace
		if k == 1 {
			sub = win
		} else {
			idx, err := core.SystematicCount{K: k}.Select(win, nil)
			if err != nil {
				return nil, err
			}
			sub = &trace.Trace{Start: win.Start, ClockUS: win.ClockUS}
			for _, i := range idx {
				sub.Packets = append(sub.Packets, win.Packets[i])
			}
		}
		fs, err := flows.Decompose(sub, timeout*int64(k))
		if err != nil {
			return nil, err
		}
		sum := flows.Summarize(fs)
		out.DetectedFrac = append(out.DetectedFrac, float64(sum.Flows)/float64(fullSum.Flows))
		out.MeanPktsScale = append(out.MeanPktsScale,
			sum.MeanPackets*float64(k)/fullSum.MeanPackets)
	}
	return out, nil
}

// ID implements Result.
func (r *FlowBiasResult) ID() string { return "ext-flows" }

// Title implements Result.
func (r *FlowBiasResult) Title() string {
	return fmt.Sprintf("flow-level view under packet sampling (%d true flows, mean %.1f pkts)",
		r.TrueFlows, r.TrueMeanPkts)
}

// WriteText implements Result.
func (r *FlowBiasResult) WriteText(w io.Writer) error {
	if err := header(w, r); err != nil {
		return err
	}
	fmt.Fprintf(w, "%8s %14s %18s\n", "1/frac", "detected-frac", "size-bias (x true)")
	for i := range r.Granularities {
		if _, err := fmt.Fprintf(w, "%8d %14.3f %18.2f\n",
			r.Granularities[i], r.DetectedFrac[i], r.MeanPktsScale[i]); err != nil {
			return err
		}
	}
	return nil
}

// Table implements Result.
func (r *FlowBiasResult) Table() ([]string, [][]string) {
	cols := []string{"granularity", "detected_fraction", "size_bias"}
	var rows [][]string
	for i := range r.Granularities {
		rows = append(rows, []string{d(r.Granularities[i]),
			f(r.DetectedFrac[i]), f(r.MeanPktsScale[i])})
	}
	return cols, rows
}
