package experiment

import (
	"time"

	"netsample/internal/bins"
	"netsample/internal/collect"
	"netsample/internal/core"
	"netsample/internal/nsfnet"
	"netsample/internal/pipeline"
	"netsample/internal/trace"
	"netsample/internal/traffgen"
)

// adaptiveEpochUS is the node model's control period on the virtual
// clock: one decision per second of packet timestamps.
const adaptiveEpochUS = 1_000_000

// AdaptiveNode runs tr through a T1 node whose sampling granularity is
// steered by the pipeline's control law. The node starts at ctl.StartK;
// at the end of every 1 s virtual-clock epoch that saw traffic,
// ctl.Decide reads the epoch as a window — Offered and Dropped are the
// statistics processor's deltas, SizeReport scores the packets it
// accepted against every packet the epoch offered, its parent — and the
// node takes the k it returns. Epochs are anchored at the first packet
// and numbered from 1 (AdaptiveDecision.Window; a decision falls Window
// seconds in). A silent epoch offered nothing to steer by and decides
// nothing: a forward timestamp jump of any length is one arithmetic
// advance, so decisions are bounded by the packets, not by the clock.
func AdaptiveNode(tr *trace.Trace, capacityPPS float64, buffer int, ctl pipeline.AdaptiveConfig) (*nsfnet.T1Node, []pipeline.AdaptiveDecision, error) {
	// The epoch's size bin counts: every packet offered, and the ones the
	// processor accepted.
	nb := bins.PacketSize().NumBins()
	parent, sample := make([]uint64, nb), make([]uint64, nb)
	node := nsfnet.NewT1Node(capacityPPS, buffer, ctl.StartK)
	var decisions []pipeline.AdaptiveDecision
	var offered, dropped uint64 // processor counters when the epoch opened
	epoch, epochStart := uint64(1), tr.Packets[0].Time
	for _, p := range tr.Packets {
		if gap := p.Time - epochStart; gap >= adaptiveEpochUS {
			snap := collect.Snapshot{
				Seq:     epoch,
				Offered: node.Proc.Offered() - offered,
				Dropped: node.Proc.Dropped() - dropped,
			}
			// An epoch that accepted nothing, or whose packets all fell in
			// one bin, is unscored.
			if rep, err := core.ScoreParent(sample, parent); err == nil {
				snap.SizeReport = &rep
			}
			d := ctl.Decide(node.K(), &snap)
			if err := node.SetGranularity(d.K); err != nil {
				return nil, nil, err
			}
			decisions = append(decisions, d)
			offered, dropped = node.Proc.Offered(), node.Proc.Dropped()
			clear(parent)
			clear(sample)
			// p opens the epoch it falls in; the ones between were silent.
			skip := gap / adaptiveEpochUS
			epoch += uint64(skip)
			epochStart += skip * adaptiveEpochUS
		}
		b := bins.SizeBin(p.Size)
		parent[b]++
		accepted := node.Proc.Accepted()
		node.Process(p)
		if node.Proc.Accepted() != accepted {
			sample[b]++
		}
	}
	return node, decisions, nil
}

// AdaptiveResult compares three statistics-path configurations on a
// load ramp through the same finite processor: unsampled (the pre-1991
// T1 configuration), fixed 1-in-50 (the deployed remedy), and adaptive
// granularity control. For each it reports the scaled categorization
// total's relative error against the exact SNMP truth and the mean
// sampling granularity spent.
type AdaptiveResult struct {
	table
	Rows []AdaptiveRow
}

// AdaptiveRow is one configuration's outcome.
type AdaptiveRow struct {
	Config   string
	Truth    uint64
	Estimate uint64
	RelError float64
	MeanK    float64
}

// Adaptive runs the comparison on a 60-second trace whose offered load
// ramps from well under to well over the processor capacity.
func Adaptive() (*AdaptiveResult, error) {
	cfg := traffgen.NSFNETHour()
	cfg.Seed = 0xada9
	cfg.Duration = 60 * time.Second
	cfg.TargetPPS = 1200
	cfg.Envelope.TrendPerHour = 1.6 // strong ramp across the minute
	tr, err := traffgen.Generate(cfg)
	if err != nil {
		return nil, err
	}
	const capacity = 600
	const buffer = 32
	out := &AdaptiveResult{table: newTable("ext-adaptive",
		"extension: adaptive granularity control vs fixed sampling on a load ramp",
		column{"config", "config", "%-16s"}, column{"truth", "truth", "%10d"}, column{"estimate", "estimate", "%10d"},
		column{"error_pct", "error", "%9.1f%%"}, column{"mean_k", "mean-k", "%8.1f"})}

	// Unsampled.
	plain := nsfnet.NewT1Node(capacity, buffer, 0)
	plain.ProcessTrace(tr)
	out.add("unsampled", plain.SNMP.InPackets, plain.CategorizedPackets(), 1)

	// Fixed 1-in-50.
	fixed := nsfnet.NewT1Node(capacity, buffer, 50)
	fixed.ProcessTrace(tr)
	out.add("fixed-1-in-50", fixed.SNMP.InPackets, fixed.CategorizedPackets(), 50)

	// Adaptive: the pipeline's law with any processor drop coarsening.
	an, decisions, err := AdaptiveNode(tr, capacity, buffer, pipeline.AdaptiveConfig{
		MinK: 1, MaxK: 512, StartK: 1, TargetPhi: 0.15,
	})
	if err != nil {
		return nil, err
	}
	meanK := float64(an.K())
	if len(decisions) > 0 {
		var kSum float64
		for _, d := range decisions {
			kSum += float64(d.K)
		}
		meanK = kSum / float64(len(decisions))
	}
	out.add("adaptive", an.SNMP.InPackets, an.CategorizedPackets(), meanK)
	return out, nil
}

// add appends one configuration's row.
func (r *AdaptiveResult) add(name string, truth, est uint64, meanK float64) {
	rel := 0.0
	if truth > 0 {
		rel = float64(est)/float64(truth) - 1
	}
	r.Rows = append(r.Rows, AdaptiveRow{Config: name, Truth: truth, Estimate: est, RelError: rel, MeanK: meanK})
	r.addRow(str(name), integer(truth), integer(est), float(100*rel), float(meanK))
}
