package pipeline

import (
	"cmp"
	"fmt"
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
// it. The reader owns it: the collector hands it back through barFree
// once every part is in and merged, and nothing published refers to it.
type barrier struct {
	seq     uint64
	startUS int64
	endUS   int64
	final   bool
	offered uint64
	parts   chan shardPart
}

// shardPart is one shard's window-local state at a barrier. dropped is
// the shard's overload loss this window, summed from the drop deltas
// the ingest worker flushed down its ring. bufs is on loan from the
// shard: merge copies out of it and the collector sends it back.
type shardPart struct {
	shard       int
	processed   uint64
	selected    uint64
	dropped     uint64
	bufs        cutBufs
	flows       flows.Counts
	activeFlows int
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
	parts := make([]shardPart, len(p.shards))
	for bar := range p.barriers {
		for range p.shards {
			part := <-bar.parts
			parts[part.shard] = part
		}
		snap := p.merge(bar, parts)
		// merge copied what it keeps into the snapshot's own block, so
		// nothing published refers to the barrier or the parts' buffers:
		// hand them back to their owners. A full ring drops the object.
		for _, part := range parts {
			select {
			case p.shards[part.shard].cutFree <- part.bufs:
			default:
			}
		}
		select {
		case p.barFree <- bar:
		default:
		}
		if p.decided != nil {
			// Control step before publication: the reader is parked on
			// this cut and every window it reads next depends on the
			// decision, so deciding first keeps the pipeline draining.
			p.controlStep(snap)
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

// snapBlock is what merge publishes for one window, allocated as one
// object: the Snapshot and the two reports its pointers lead to.
type snapBlock struct {
	Snapshot
	sizeRep, iatRep metrics.Report
}

// merge folds the shard parts into one Snapshot, in shard order so the
// float64 count sums are reproducible (and exact: the counts are
// integers far below 2⁵³). Both histograms share one backing array.
func (p *Pipeline) merge(bar *barrier, parts []shardPart) *Snapshot {
	nSize := p.cfg.SizeScheme.NumBins()
	counts := make([]float64, nSize+p.cfg.IatScheme.NumBins())
	blk := &snapBlock{Snapshot: Snapshot{
		Seq:            bar.seq,
		WindowStartUS:  bar.startUS,
		WindowEndUS:    bar.endUS,
		Final:          bar.final,
		Shards:         len(p.shards),
		Offered:        bar.offered,
		DroppedByShard: make([]uint64, len(p.shards)),
		SizeCounts:     counts[:nSize:nSize],
		IatCounts:      counts[nSize:],
	}}
	snap := &blk.Snapshot
	for i := range parts {
		part := &parts[i]
		snap.Processed += part.processed
		snap.Selected += part.selected
		snap.Dropped += part.dropped
		snap.DroppedByShard[part.shard] = part.dropped
		for b, c := range part.bufs.size {
			snap.SizeCounts[b] += c
		}
		for b, c := range part.bufs.iat {
			snap.IatCounts[b] += c
		}
		snap.Flows.Flows += part.flows.Flows
		snap.Flows.Packets += part.flows.Packets
		snap.Flows.Bytes += part.flows.Bytes
		snap.Flows.Singletons += part.flows.Singletons
		snap.ActiveFlows += part.activeFlows
		snap.TopK = append(snap.TopK, part.bufs.topk...)
	}
	rankEntries(snap.TopK)
	if len(snap.TopK) > p.cfg.TopKReport {
		snap.TopK = snap.TopK[:p.cfg.TopKReport]
	}
	snap.SizeReport = scoreCounts(p.cfg.SizeEval, snap.SizeCounts, &blk.sizeRep)
	snap.IatReport = scoreCounts(p.cfg.IatEval, snap.IatCounts, &blk.iatRep)
	return snap
}

// scoreCounts scores merged counts against a reference evaluator into
// rep and returns it, or nil for unscored snapshots (no evaluator, or
// an empty window for which χ²-family metrics are undefined).
func scoreCounts(ev *core.Evaluator, counts []float64, rep *metrics.Report) *metrics.Report {
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
	var err error
	if *rep, err = ev.ScoreCounts(counts); err != nil {
		// Bin-count mismatches are rejected at New; an error here would
		// mean an evaluator swapped mid-run, which the API forbids.
		return nil
	}
	return rep
}

// Wire converts the snapshot to its collect wire form for export. The
// result shares nothing with s: its own copy of the reports rides in
// the same block, and both count arrays share one backing array.
func (s *Snapshot) Wire(node string) *collect.Snapshot {
	blk := &struct {
		collect.Snapshot
		sizeRep, iatRep metrics.Report
	}{Snapshot: collect.Snapshot{
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
		FlowCounts:    s.Flows,
		ActiveFlows:   uint64(s.ActiveFlows),
		TopK:          append([]nnstat.Entry(nil), s.TopK...),
	}}
	w := &blk.Snapshot
	// Integer-valued float64 counts convert losslessly.
	nSize := len(s.SizeCounts)
	counts := make([]uint64, nSize+len(s.IatCounts))
	for i, c := range s.SizeCounts {
		counts[i] = uint64(c)
	}
	for i, c := range s.IatCounts {
		counts[nSize+i] = uint64(c)
	}
	w.SizeCounts, w.IatCounts = counts[:nSize:nSize], counts[nSize:]
	if s.SizeReport != nil {
		blk.sizeRep = *s.SizeReport
		w.SizeReport = &blk.sizeRep
	}
	if s.IatReport != nil {
		blk.iatRep = *s.IatReport
		w.IatReport = &blk.iatRep
	}
	return w
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

// SnapshotAppender is where a StoreSink persists wire snapshots;
// *store.Writer is the one a daemon uses.
type SnapshotAppender interface {
	AppendSnapshot(*collect.Snapshot) error
}

// StoreSink is the Config.OnSnapshot of a node that persists every
// window (nsd -store): the record is the exact wire payload the
// exporter would serve, so a cold replay of the store is bit-identical
// to the live export. A failed append is counted rather than only
// logged, because a run that lost windows must not report success.
type StoreSink struct {
	Node string
	To   SnapshotAppender

	lost  int
	first error
}

// OnSnapshot appends one window. Collector goroutine only.
func (sk *StoreSink) OnSnapshot(s *Snapshot) {
	if err := sk.To.AppendSnapshot(s.Wire(sk.Node)); err != nil {
		if sk.lost == 0 {
			sk.first = err
		}
		sk.lost++
	}
}

// Err reports, once Run has returned, how many windows the appender
// refused; nil when every window was persisted.
func (sk *StoreSink) Err() error {
	if sk.lost == 0 {
		return nil
	}
	return fmt.Errorf("%d window(s) not persisted, first: %w", sk.lost, sk.first)
}
