package pipeline

import (
	"cmp"
	"slices"

	"netsample/internal/collect"
	"netsample/internal/core"
	"netsample/internal/flows"
	"netsample/internal/metrics"
	"netsample/internal/nnstat"
)

// barrier is a window cut travelling through every shard ring. The
// reader stamps it with the window bounds and the offered count; each
// shard deposits its partial state into parts when the barrier reaches
// it.
type barrier struct {
	seq     uint64
	startUS int64
	endUS   int64
	final   bool
	offered uint64
	parts   chan shardPart

	// Adaptive-control handshake (nil channel when adaptive is off):
	// the collector stores the next window's granularity in nextK and
	// closes decided; the reader waits on decided in emitBarrier before
	// offering the sampler any packet of the next window.
	nextK   int
	decided chan struct{}
}

// shardPart is one shard's window-local state at a barrier. dropped is
// the shard's overload loss this window, summed from the drop deltas
// the ingest worker flushed down its ring.
type shardPart struct {
	shard       int
	processed   uint64
	selected    uint64
	dropped     uint64
	sizeCounts  []float64
	iatCounts   []float64
	flows       flows.Counts
	activeFlows int
	topk        []nnstat.Entry
}

// Snapshot is one consistent windowed view of the pipeline: the merge
// of every shard's state at the same stream cut. All counters are
// window-local (they reset at each barrier); Seq orders the windows.
type Snapshot struct {
	// Seq is the 1-based window sequence number.
	Seq uint64
	// WindowStartUS and WindowEndUS bound the window on the virtual
	// clock (packet timestamps), half-open [start, end).
	WindowStartUS int64
	WindowEndUS   int64
	// Final marks the snapshot taken when the source drained.
	Final bool
	// Shards is the pipeline's shard count.
	Shards int
	// K is the systematic granularity in force during this window under
	// adaptive control (Config.Adaptive); 0 in fixed-sampler mode. It is
	// deliberately absent from the wire form: adaptive state is local
	// operational detail, and the export format stays unchanged.
	K int

	// Offered counts packets the ingest read from the source this
	// window; Processed counts those that reached a shard worker;
	// Dropped = Offered - Processed is the overload loss, also broken
	// out per shard in DroppedByShard. Selected counts selected packets
	// that reached a shard: selection precedes shedding, so under Drop
	// a selected packet in a shed batch is in Dropped, not here.
	Offered        uint64
	Processed      uint64
	Selected       uint64
	Dropped        uint64
	DroppedByShard []uint64

	// SizeCounts and IatCounts are the merged per-bin histogram counts
	// of the selected packets (integer-valued; exact under float64).
	SizeCounts []float64
	IatCounts  []float64
	// SizeReport and IatReport score the counts against the reference
	// population when evaluators are configured and the window selected
	// at least one observation; nil otherwise.
	SizeReport *metrics.Report
	IatReport  *metrics.Report

	// Flows aggregates the selected packets' flow records closed this
	// window (flows spanning a boundary are split at the cut);
	// ActiveFlows counts flows open at the cut, summed over shards.
	Flows       flows.Counts
	ActiveFlows int
	// TopK lists the merged heavy-hitter flows by estimated packet
	// count. Flow-hash sharding keeps keys disjoint across shards, so
	// the merge is exact concatenation.
	TopK []nnstat.Entry
}

// collect is the snapshot collector goroutine: it pairs each barrier
// with its shard parts, merges them into a Snapshot, scores it, and
// publishes it.
func (p *Pipeline) collect() {
	defer close(p.done)
	for bar := range p.barriers {
		parts := make([]shardPart, len(p.shards))
		for range p.shards {
			part := <-bar.parts
			parts[part.shard] = part
		}
		snap := p.merge(bar, parts)
		// merge summed the parts' histograms into the snapshot's own
		// slices, so nothing published refers to them: hand them back.
		for _, part := range parts {
			select {
			case p.shards[part.shard].histFree <- histBufs{part.sizeCounts, part.iatCounts}:
			default:
			}
		}
		if bar.decided != nil {
			// Control step before publication: the reader is parked on
			// this barrier and every window it reads next depends on the
			// decision, so deciding first keeps the pipeline draining.
			p.controlStep(bar, snap)
		}
		p.latest.Store(snap)
		p.mu.Lock()
		p.snaps = append(p.snaps, snap)
		p.mu.Unlock()
		if p.cfg.OnSnapshot != nil {
			p.cfg.OnSnapshot(snap)
		}
	}
}

// rankEntries orders heavy hitters by count descending, then key
// ascending. Keys are unique after a shard or map merge, so the order
// is total and the result does not depend on the sort algorithm.
func rankEntries(es []nnstat.Entry) {
	slices.SortFunc(es, func(a, b nnstat.Entry) int {
		if c := cmp.Compare(b.Count, a.Count); c != 0 {
			return c
		}
		return cmp.Compare(a.Key, b.Key)
	})
}

// merge folds the shard parts into one Snapshot, in shard order so the
// float64 count sums are reproducible (and exact: the counts are
// integers far below 2⁵³).
func (p *Pipeline) merge(bar *barrier, parts []shardPart) *Snapshot {
	snap := &Snapshot{
		Seq:            bar.seq,
		WindowStartUS:  bar.startUS,
		WindowEndUS:    bar.endUS,
		Final:          bar.final,
		Shards:         len(p.shards),
		Offered:        bar.offered,
		DroppedByShard: make([]uint64, len(p.shards)),
		SizeCounts:     make([]float64, p.cfg.SizeScheme.NumBins()),
		IatCounts:      make([]float64, p.cfg.IatScheme.NumBins()),
	}
	for i := range parts {
		part := &parts[i]
		snap.Processed += part.processed
		snap.Selected += part.selected
		snap.Dropped += part.dropped
		snap.DroppedByShard[part.shard] = part.dropped
		for b, c := range part.sizeCounts {
			snap.SizeCounts[b] += c
		}
		for b, c := range part.iatCounts {
			snap.IatCounts[b] += c
		}
		snap.Flows.Flows += part.flows.Flows
		snap.Flows.Packets += part.flows.Packets
		snap.Flows.Bytes += part.flows.Bytes
		snap.Flows.Singletons += part.flows.Singletons
		snap.ActiveFlows += part.activeFlows
		snap.TopK = append(snap.TopK, part.topk...)
	}
	rankEntries(snap.TopK)
	if len(snap.TopK) > p.cfg.TopKReport {
		snap.TopK = snap.TopK[:p.cfg.TopKReport]
	}
	snap.SizeReport = scoreCounts(p.cfg.SizeEval, snap.SizeCounts)
	snap.IatReport = scoreCounts(p.cfg.IatEval, snap.IatCounts)
	return snap
}

// scoreCounts scores merged counts against a reference evaluator,
// returning nil for unscored snapshots (no evaluator, or an empty
// window for which χ²-family metrics are undefined).
func scoreCounts(ev *core.Evaluator, counts []float64) *metrics.Report {
	if ev == nil {
		return nil
	}
	var total float64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return nil
	}
	rep, err := ev.ScoreCounts(counts)
	if err != nil {
		// Bin-count mismatches are rejected at New; an error here would
		// mean an evaluator swapped mid-run, which the API forbids.
		return nil
	}
	return &rep
}

// Wire converts the snapshot to its collect wire form for export.
func (s *Snapshot) Wire(node string) *collect.Snapshot {
	w := &collect.Snapshot{
		Node:          node,
		Seq:           s.Seq,
		WindowStartUS: s.WindowStartUS,
		WindowEndUS:   s.WindowEndUS,
		Final:         s.Final,
		Shards:        uint32(s.Shards),
		Offered:       s.Offered,
		Processed:     s.Processed,
		Selected:      s.Selected,
		Dropped:       s.Dropped,
		SizeCounts:    countsToWire(s.SizeCounts),
		IatCounts:     countsToWire(s.IatCounts),
		FlowCounts:    s.Flows,
		ActiveFlows:   uint64(s.ActiveFlows),
		TopK:          append([]nnstat.Entry(nil), s.TopK...),
	}
	if s.SizeReport != nil {
		rep := *s.SizeReport
		w.SizeReport = &rep
	}
	if s.IatReport != nil {
		rep := *s.IatReport
		w.IatReport = &rep
	}
	return w
}

// countsToWire converts integer-valued float64 bin counts to uint64 for
// the wire (lossless: counts are exact integers).
func countsToWire(counts []float64) []uint64 {
	out := make([]uint64, len(counts))
	for i, c := range counts {
		out[i] = uint64(c)
	}
	return out
}

// Exporter adapts the pipeline to collect.SnapshotSource, so an Agent
// can export the live view under a fixed node name.
type Exporter struct {
	p    *Pipeline
	node string
}

// NewExporter wraps the pipeline as a collect.SnapshotSource publishing
// snapshots under the given node name.
func NewExporter(p *Pipeline, node string) *Exporter {
	return &Exporter{p: p, node: node}
}

// LatestSnapshot returns the wire form of the most recent snapshot.
func (e *Exporter) LatestSnapshot() (*collect.Snapshot, bool) {
	s, ok := e.p.Latest()
	if !ok {
		return nil, false
	}
	return s.Wire(e.node), true
}
