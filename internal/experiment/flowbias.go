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
// is preserved). Each granularity streams its 1-in-k selection straight
// into a flow counter: no flow record, sort or sub-trace is built. A
// nonempty window yields at least one flow at every k (the selection
// starts at its first packet), so a mean flow size is the counted
// packets over the counted flows, the float a summary of the records
// gives.
func FlowBias(tr *trace.Trace) (*FlowBiasResult, error) {
	win := window(tr, 1024)
	const timeout = 2_000_000
	full, err := sampledFlows(win, 1, timeout)
	if err != nil {
		return nil, err
	}
	out := &FlowBiasResult{
		TrueFlows:     int(full.Flows),
		TrueMeanPkts:  float64(full.Packets) / float64(full.Flows),
		Granularities: []int{1, 10, 50, 250, 1000},
	}
	for _, k := range out.Granularities {
		c := full
		if k > 1 {
			if c, err = sampledFlows(win, k, timeout*int64(k)); err != nil {
				return nil, err
			}
		}
		out.DetectedFrac = append(out.DetectedFrac, float64(c.Flows)/float64(full.Flows))
		out.MeanPktsScale = append(out.MeanPktsScale,
			float64(c.Packets)/float64(c.Flows)*float64(k)/out.TrueMeanPkts)
	}
	return out, nil
}

// sampledFlows counts the flows of win's 1-in-k systematic sample under
// the given idle timeout.
func sampledFlows(win *trace.Trace, k int, timeoutUS int64) (flows.Counts, error) {
	fc, err := flows.NewCounter(timeoutUS)
	if err != nil {
		return flows.Counts{}, err
	}
	err = core.SystematicCount{K: k}.SelectEach(win, nil, func(i int) {
		p := win.Packets[i]
		fc.AddHashed(flows.KeyOf(p).Hash(), p)
	})
	return fc.Cut(), err
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
