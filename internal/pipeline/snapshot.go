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

// barrier is a window cut travelling through every shard channel. The
// reader stamps it with the window bounds and its two tallies, the size
// bins then the gap bins of every record the window offered (parent)
// and of the ones it selected (sample); each shard deposits its partial
// state into parts when the barrier reaches it. The reader owns it: the
// collector hands it back through barFree once every part is in and
// merged, and nothing published refers to it.
type barrier struct {
	seq     uint64
	startUS int64
	endUS   int64
	final   bool
	parent  []uint64
	sample  []uint64
	parts   chan shardPart
}

// shardPart is one shard's window-local state at a barrier. topk is on
// loan from the shard: merge copies out of it and the collector sends
// it back.
type shardPart struct {
	shard       int
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
		// hand them back to their owners. A full free channel drops the
		// object.
		for _, part := range parts {
			select {
			case p.shards[part.shard].cutFree <- part.topk:
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
// slabs merge carves each window from, and the scratch it ranks the
// shards' heavy hitters in before copying the kept ones out.
type pubSlabs struct {
	blocks slab[snapBlock]
	counts slab[float64]
	wire   slab[uint64]
	top    slab[nnstat.Entry]
	rank   []nnstat.Entry
}

// merge folds the barrier and the shard parts into one Snapshot: it
// copies the sample tally into the wire form's integer counts, then
// fills the float64 mirror from them (exact: the counts are far below
// 2⁵³). Each count form keeps both histograms in one slice; the block,
// both count forms and TopK come from the collector's slabs.
func (p *Pipeline) merge(bar *barrier, parts []shardPart) *Snapshot {
	pub := &p.pub
	nSize := p.nSize
	nBins := len(bar.parent)
	counts, wire := pub.counts.take(nBins), pub.wire.take(nBins)
	copy(wire, bar.sample)
	// Every record has a size: the size bins count them all.
	var offered, selected uint64
	for b := range nSize {
		offered += bar.parent[b]
		selected += wire[b]
	}
	blk := &pub.blocks.take(1)[0]
	blk.Snapshot = Snapshot{
		Snapshot: collect.Snapshot{
			Seq:           bar.seq,
			WindowStartUS: bar.startUS,
			WindowEndUS:   bar.endUS,
			Final:         bar.final,
			Shards:        uint32(len(p.shards)),
			Offered:       offered,
			Processed:     offered,
			Selected:      selected,
			SizeCounts:    wire[:nSize:nSize],
			IatCounts:     wire[nSize:],
		},
		SizeCounts: counts[:nSize:nSize],
		IatCounts:  counts[nSize:],
	}
	snap := &blk.Snapshot
	for i := range parts {
		part := &parts[i]
		snap.FlowCounts.Flows += part.flows.Flows
		snap.FlowCounts.Packets += part.flows.Packets
		snap.FlowCounts.Bytes += part.flows.Bytes
		snap.FlowCounts.Singletons += part.flows.Singletons
		snap.ActiveFlows += uint64(part.activeFlows)
		pub.rank = append(pub.rank, part.topk...)
	}
	for b, c := range wire {
		counts[b] = float64(c)
	}
	rankEntries(pub.rank)
	snap.TopK = pub.top.take(min(len(pub.rank), p.cfg.TopKReport))
	copy(snap.TopK, pub.rank)
	// The scratch must not pin the keys of windows gone by.
	clear(pub.rank)
	pub.rank = pub.rank[:0]
	snap.SizeReport = scoreCounts(snap.Snapshot.SizeCounts, bar.parent[:nSize], &blk.sizeRep)
	snap.IatReport = scoreCounts(snap.Snapshot.IatCounts, bar.parent[nSize:], &blk.iatRep)
	return snap
}

// scoreCounts scores a window's merged counts against its parent's into
// rep and returns it, or nil for a window core.ScoreParent leaves unscored.
func scoreCounts(sample, parent []uint64, rep *metrics.Report) *metrics.Report {
	var err error
	if *rep, err = core.ScoreParent(sample, parent); err != nil {
		return nil
	}
	return rep
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
