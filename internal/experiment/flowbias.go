package experiment

import (
	"fmt"

	"netsample/internal/core"
	"netsample/internal/flows"
	"netsample/internal/trace"
)

// FlowBias quantifies what packet sampling does to flow-level views —
// the problem the paper's conclusion gestures at for the traffic matrix
// and that the NetFlow era made famous: a 1-in-k sample detects only
// the flows it happens to hit, so flow counts collapse and the
// surviving flows skew large. Each row gives the detected flows over
// the true flows, and the sampled mean packets a flow, times k, over
// the true mean.
//
// It runs the sweep on the first 1024 s of the trace with a 2 s
// idle timeout (scaled by k on the thinned traces so flow identity
// is preserved). Each granularity streams its 1-in-k selection straight
// into a flow counter: no flow record, sort or sub-trace is built. A
// nonempty window yields at least one flow at every k (the selection
// starts at its first packet), so a mean flow size is the counted
// packets over the counted flows, the float a summary of the records
// gives.
func FlowBias(tr *trace.Trace) (Result, error) {
	win := window(tr, 1024)
	const timeout = 2_000_000
	full, err := sampledFlows(win, 1, timeout)
	if err != nil {
		return nil, err
	}
	trueMeanPkts := float64(full.Packets) / float64(full.Flows)
	out := newTable("ext-flows", fmt.Sprintf("flow-level view under packet sampling (%d true flows, mean %.1f pkts)",
		int(full.Flows), trueMeanPkts), granularity, column{"detected_fraction", "detected-frac", "%14.3f"},
		column{"size_bias", "size-bias (x true)", "%18.2f"})
	for _, k := range []int{1, 10, 50, 250, 1000} {
		c := full
		if k > 1 {
			if c, err = sampledFlows(win, k, timeout*int64(k)); err != nil {
				return nil, err
			}
		}
		detected := float64(c.Flows) / float64(full.Flows)
		bias := float64(c.Packets) / float64(c.Flows) * float64(k) / trueMeanPkts
		out.addRow(integer(k), float(detected), float(bias))
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
