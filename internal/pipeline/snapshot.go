package pipeline

import (
	"cmp"
	"slices"
	"sync"

	"netsample/internal/collect"
	"netsample/internal/flows"
	"netsample/internal/metrics"
	"netsample/internal/nnstat"
)

// barrier is a window cut travelling through every shard channel. The
// reader stamps it at the cut with what only the reader knows of the
// window: win, the wire form's header with its offered and selected
// counts and the reports (which point at sizeRep and iatRep), the
// sample tally (size bins then gap bins of the records it selected),
// and k. parts has one slot per shard, which that shard fills in place
// when the barrier reaches it; cut counts the slots still to fill. The
// reader owns the barrier: New makes the ring, the reader stamps each
// again QueueDepth+2 windows later, by when the collector has merged
// it, and nothing published refers to it.
type barrier struct {
	win             collect.Snapshot
	sizeRep, iatRep metrics.Report
	sample          []uint64
	k               int
	parts           []shardPart
	// top backs every slot's topk: shard s's entries start at
	// s*TopKReport, and merge gathers them all to its front to rank.
	top []nnstat.Entry
	cut sync.WaitGroup
}

// shardPart is one shard's window-local state at a barrier, its slot
// in barrier.parts. topk is the slot's own TopKReport entries of
// barrier.top, full-capped so a cut never writes past them.
type shardPart struct {
	topk        []nnstat.Entry
	flows       flows.Counts
	activeFlows int
}

// Snapshot is one consistent windowed view of the pipeline: the reader's
// tallies and the merge of every shard's state at the same stream cut.
// All counters are window-local (they reset at each barrier); Seq orders
// the windows.
//
// The embedded collect.Snapshot is the window's wire form with Node
// left empty. Offered counts the window's packets; per packet, the node
// only reads the timestamp and size, chains the gap, bins both and
// offers the timestamp to the sampler. Selected counts the packets the
// sampler chose, the only ones binned into the size and interarrival
// counts, decoded, hashed and handed to a shard for flows and top-K.
// Shard channels block rather than shed, so every offered packet is
// processed: merge sets Processed = Offered, and Dropped is 0 (it is
// the loss the node model's nsfnet.Processor fills in for Decide).
// FlowCounts aggregates the flow records closed this window (flows
// spanning a boundary are split at the cut), ActiveFlows counts flows
// open at the cut, and TopK is the merged heavy-hitter list — flow-hash
// sharding keeps keys disjoint, so the merge is exact concatenation.
// The reports score the counts against the window's parent population,
// every packet it offered; nil when the window selected nothing or its
// parent hit fewer than two bins.
type Snapshot struct {
	collect.Snapshot
	// K is the systematic granularity in force during this window under
	// adaptive control (Config.Adaptive); 0 in fixed-sampler mode. It is
	// deliberately absent from the wire form: adaptive state is local
	// operational detail, and the export format stays unchanged.
	K int
	// SizeCounts and IatCounts mirror the wire form's integer bin
	// counts as float64 (exact: far below 2⁵³), the form
	// core.Evaluator.ScoreCounts takes. They shadow the embedded counts,
	// reached as s.Snapshot.SizeCounts.
	SizeCounts []float64
	IatCounts  []float64
}

// collect is the snapshot collector goroutine: it waits for every shard
// to fill its slot of each barrier, merges the barrier into a Snapshot
// and publishes it. merge copies what it keeps into the snapshot's own
// block, so the reader may stamp the barrier again once the collector
// has received the next one.
func (p *Pipeline) collect() {
	defer close(p.done)
	for bar := range p.barriers {
		bar.cut.Wait()
		snap := p.merge(bar)
		p.latest.Store(snap)
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

// snapBlock is what merge publishes for one window, carved as one
// object: the Snapshot and the two reports its pointers lead to.
type snapBlock struct {
	Snapshot
	sizeRep, iatRep metrics.Report
}

// slabWindows is how many windows' worth of published storage one slab
// chunk holds.
const slabWindows = 64

// slab carves what merge publishes out of chunks shared by
// slabWindows windows. Nothing carved is ever handed back: a chunk
// lives as long as the last window cut from it.
type slab[T any] struct{ free []T }

// take returns n zero elements of the current chunk, starting a new one
// of slabWindows*n when it is short. The slice is full-capped, so an
// append to one window's slice reallocates instead of writing into the
// next window's, and non-nil even when empty, as TopK always was.
func (s *slab[T]) take(n int) []T {
	if s.free == nil || len(s.free) < n {
		s.free = make([]T, slabWindows*n)
	}
	b := s.free[:n:n]
	s.free = s.free[n:]
	return b
}

// pubSlabs is the collector's storage for published windows: the
// slabs merge carves each window from.
type pubSlabs struct {
	blocks slab[snapBlock]
	counts slab[float64]
	wire   slab[uint64]
	top    slab[nnstat.Entry]
}

// merge folds the barrier and its shard slots into one Snapshot: it
// copies the barrier's header, reports and sample tally into the
// window's block, the tally as the wire form's integer counts and as
// their float64 mirror (exact: the counts are far below 2⁵³). Each
// count form keeps both histograms in one slice; the block, both count
// forms and TopK come from the collector's slabs; the shards' heavy
// hitters are ranked in the barrier's own top buffer.
func (p *Pipeline) merge(bar *barrier) *Snapshot {
	pub := &p.pub
	nSize := p.nSize
	nBins := len(bar.sample)
	counts, wire := pub.counts.take(nBins), pub.wire.take(nBins)
	copy(wire, bar.sample)
	blk := &pub.blocks.take(1)[0]
	blk.sizeRep, blk.iatRep = bar.sizeRep, bar.iatRep
	blk.Snapshot = Snapshot{
		Snapshot:   bar.win,
		K:          bar.k,
		SizeCounts: counts[:nSize:nSize],
		IatCounts:  counts[nSize:],
	}
	snap := &blk.Snapshot
	snap.Shards = uint32(len(p.shards))
	snap.Snapshot.SizeCounts, snap.Snapshot.IatCounts = wire[:nSize:nSize], wire[nSize:]
	if snap.SizeReport != nil {
		snap.SizeReport = &blk.sizeRep
	}
	if snap.IatReport != nil {
		snap.IatReport = &blk.iatRep
	}
	// Slot i's entries start at i*TopKReport, at or right of the ones
	// gathered before it, so the gather only moves entries left.
	top := bar.top[:0]
	for i := range bar.parts {
		part := &bar.parts[i]
		snap.FlowCounts.Flows += part.flows.Flows
		snap.FlowCounts.Packets += part.flows.Packets
		snap.FlowCounts.Bytes += part.flows.Bytes
		snap.FlowCounts.Singletons += part.flows.Singletons
		snap.ActiveFlows += uint64(part.activeFlows)
		top = append(top, part.topk...)
	}
	for b, c := range wire {
		counts[b] = float64(c)
	}
	rankEntries(top)
	snap.TopK = pub.top.take(min(len(top), p.cfg.TopKReport))
	copy(snap.TopK, top)
	return snap
}

// Wire returns the snapshot's wire form stamped with a node name: a
// copy of the embedded collect.Snapshot that aliases s's TopK, integer
// counts and reports, which neither side may write through. It
// inlines, so a caller that encodes the result and drops it allocates
// nothing. The window it copies was carved from the collector's slabs
// and its keys from the shard sketch's report arena, so the whole path
// amortizes to a small fraction of an allocation a window
// (TestWindowCutAllocs).
func (s *Snapshot) Wire(node string) *collect.Snapshot {
	w := s.Snapshot
	w.Node = node
	return &w
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
