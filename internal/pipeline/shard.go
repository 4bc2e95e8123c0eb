package pipeline

import (
	"netsample/internal/bins"
	"netsample/internal/flows"
	"netsample/internal/nnstat"
	"netsample/internal/trace"
)

// item is one selected packet annotated at ingest with its
// interarrival gap against its predecessor in the full stream — the
// observation a monitor's last-timestamp register yields. Computing the
// gap before fan-out keeps the interarrival histogram exact under
// sharding.
type item struct {
	pkt    trace.Packet
	gapUS  int64
	hasGap bool
	// hash is the 5-tuple's flows.TupleHash, made at ingest for the shard
	// choice and both aggregates. It fills the trailing padding, so an
	// item stays 40 B.
	hash uint32
}

// shardMsg travels a shard's channel: a data batch or a window barrier.
// The channel is FIFO, so a shard sees its packets in stream order and
// the barrier after exactly the packets that preceded the cut. A shard
// with no packets in a batch gets no message for it.
type shardMsg struct {
	items []item
	bar   *barrier
}

// cutBufs is what a shard lends the collector at a cut: the window's
// two histogram copies and its top-k entries. It travels inside a
// shardPart and comes back through cutFree once merge has copied out of
// it; until then the shard does not touch it.
type cutBufs struct {
	size, iat []uint64
	topk      []nnstat.Entry
}

// shardState is one worker shard. Field ownership is strict: in and
// free are the channels connecting it to the reader; everything else is
// worker-goroutine-only (and the Run caller's after shardWG.Wait).
type shardState struct {
	id   int
	in   <-chan shardMsg // the reader's out channel for this shard
	free chan<- []item   // emptied item buffers, back to the reader

	// Worker-owned.
	// sizeLUT tabulates the size scheme's Index over the full uint16
	// domain of Packet.Size (shared read-only across shards), turning
	// per-packet size binning into one 64 KiB table load; iatScheme bins
	// gaps with the branchless IndexLinear scan. Both are bit-identical
	// to the schemes' Index.
	sizeLUT    []uint8
	iatScheme  *bins.Edged
	sizeCounts []uint64
	iatCounts  []uint64
	// cutFree returns the buffers of merged shardParts from the snapshot
	// collector, so cut reuses them instead of allocating a set per
	// window. It holds one set per barrier that can exist (see
	// Pipeline.barFree): a shard can be that many cuts ahead of a
	// collector busy in OnSnapshot.
	cutFree    chan cutBufs
	flowCount  *flows.Counter
	topk       *nnstat.TopK
	topkReport int
	keyBuf     [13]byte
	selected   uint64
}

// newShardState allocates one shard's aggregates. New wires in the
// channels, and builds sizeLUT over size once for all shards to share
// read-only.
func newShardState(id int, cfg *Config, size, iat *bins.Edged, sizeLUT []uint8) (*shardState, error) {
	flowCount, err := flows.NewCounter(cfg.FlowTimeoutUS)
	if err != nil {
		return nil, err
	}
	topk, err := nnstat.NewTopK(cfg.TopKCapacity)
	if err != nil {
		return nil, err
	}
	return &shardState{
		id:         id,
		sizeLUT:    sizeLUT,
		iatScheme:  iat,
		sizeCounts: make([]uint64, size.NumBins()),
		iatCounts:  make([]uint64, iat.NumBins()),
		cutFree:    make(chan cutBufs, cfg.QueueDepth+2),
		flowCount:  flowCount,
		topk:       topk,
		topkReport: cfg.TopKReport,
	}, nil
}

// buildSizeLUT tabulates a size scheme over every possible Packet.Size
// value. The IP total length is a uint16, so 64 KiB of uint8 indices
// cover the whole domain exactly — Index is consulted once per value at
// construction, making the table bit-identical to the scheme by
// definition. The paper's size scheme has 3 bins, so every index fits
// uint8.
func buildSizeLUT(s *bins.Edged) []uint8 {
	lut := make([]uint8, 1<<16)
	for v := range lut {
		lut[v] = uint8(s.Index(float64(v)))
	}
	return lut
}

// shardWorker drains one shard's channel until Run closes it: data
// batches feed the shard state, a barrier cuts it. The channel is FIFO
// and has one sender, so arrival order is stream order and the cut
// lands at the same stream position on every shard — which is why
// snapshots are the same for any shard count.
//
//nslint:hotpath
func (p *Pipeline) shardWorker(st *shardState) {
	defer p.shardWG.Done()
	for msg := range st.in {
		if msg.bar != nil {
			msg.bar.parts <- st.cut()
			continue
		}
		for i := range msg.items {
			st.process(&msg.items[i])
		}
		st.free <- msg.items[:0]
	}
}

// process feeds one selected packet to the incremental aggregates.
// This is the per-selected-packet hot path — it must not allocate
// (pinned by TestPipelineHotPathAllocs).
func (st *shardState) process(it *item) {
	st.selected++
	st.sizeCounts[st.sizeLUT[it.pkt.Size]]++
	if it.hasGap {
		st.iatCounts[st.iatScheme.IndexLinear(float64(it.gapUS))]++
	}
	st.flowCount.AddHashed(it.hash, it.pkt)
	k := &st.keyBuf
	copy(k[0:4], it.pkt.Src[:])
	copy(k[4:8], it.pkt.Dst[:])
	k[8] = byte(it.pkt.SrcPort)
	k[9] = byte(it.pkt.SrcPort >> 8)
	k[10] = byte(it.pkt.DstPort)
	k[11] = byte(it.pkt.DstPort >> 8)
	k[12] = byte(it.pkt.Protocol)
	st.topk.AddHashed(uint64(it.hash), k[:], 1)
}

// cut snapshots the shard's window-local aggregates into a shardPart
// and resets them for the next window.
//
//nslint:coldpath runs once per window cut, never per packet; a warm cut allocates only a fresh report arena for the sketch's keys, about once every 64 cuts
func (st *shardState) cut() shardPart {
	var bufs cutBufs
	select {
	case bufs = <-st.cutFree:
	default:
		bufs = cutBufs{size: make([]uint64, len(st.sizeCounts)), iat: make([]uint64, len(st.iatCounts))}
	}
	copy(bufs.size, st.sizeCounts)
	copy(bufs.iat, st.iatCounts)
	bufs.topk = st.topk.AppendTop(bufs.topk[:0], st.topkReport)
	part := shardPart{
		shard:       st.id,
		selected:    st.selected,
		bufs:        bufs,
		activeFlows: st.flowCount.ActiveCount(),
		flows:       st.flowCount.Cut(),
	}
	st.selected = 0
	clear(st.sizeCounts)
	clear(st.iatCounts)
	st.topk.Reset()
	return part
}
