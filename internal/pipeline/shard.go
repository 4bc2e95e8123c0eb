package pipeline

import (
	"netsample/internal/bins"
	"netsample/internal/flows"
	"netsample/internal/nnstat"
	"netsample/internal/trace"
)

// item is one packet annotated at ingest with its interarrival gap
// against its predecessor in the full stream — the observation a
// monitor's last-timestamp register yields. Computing the gap before
// fan-out keeps the interarrival histogram exact under sharding.
type item struct {
	pkt    trace.Packet
	gapUS  int64
	hasGap bool
	// sel is the reader's selection verdict, copied from the unit's
	// bitmap at ingest; hash the 5-tuple's flows.TupleHash, made there for
	// the shard choice and both aggregates. Both sit in old padding.
	sel  bool
	hash uint32
}

// shardMsg travels a shard's ring: a data batch or a window barrier.
// The ring is FIFO, so a shard sees its packets in stream order and the
// barrier after exactly the packets that preceded the cut. Units
// contributing nothing to a shard send it no message.
type shardMsg struct {
	items []item
	bar   *barrier
}

// cutBufs is what a shard lends the collector at a cut: the window's
// two histogram copies and its top-k entries. It travels inside a
// shardPart and comes back through cutFree once merge has copied out of
// it; until then the shard does not touch it.
type cutBufs struct {
	size, iat []float64
	topk      []nnstat.Entry
}

// shardState is one worker shard. Field ownership is strict: in and
// free are the rings connecting it to the ingest worker; everything else
// is worker-goroutine-only (and the Run caller's after shardWG.Wait).
type shardState struct {
	id   int
	in   *spsc[shardMsg] // consume side of the ingest worker's out ring
	free *spsc[[]item]   // recycle side, back to the ingest worker

	// Worker-owned.
	sizeScheme bins.Scheme
	iatScheme  bins.Scheme
	// sizeLUT tabulates sizeScheme.Index over the full uint16 domain of
	// Packet.Size (shared read-only across shards; nil if the scheme
	// exceeds uint8 bins), turning per-packet size binning into one
	// 64 KiB table load. iatEdged is set when iatScheme is a *bins.Edged,
	// switching interarrival binning to the branchless IndexLinear scan.
	// Both are bit-identical to the schemes' Index.
	sizeLUT    []uint8
	iatEdged   *bins.Edged
	sizeCounts []float64
	iatCounts  []float64
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
	processed  uint64
	selected   uint64
}

// newShardState allocates one shard's aggregates. The rings are wired
// in by New once the ingest worker exists; sizeLUT is built once by New
// and shared read-only across shards.
func newShardState(id int, cfg *Config, sizeLUT []uint8) (*shardState, error) {
	flowCount, err := flows.NewCounter(cfg.FlowTimeoutUS)
	if err != nil {
		return nil, err
	}
	topk, err := nnstat.NewTopK(cfg.TopKCapacity)
	if err != nil {
		return nil, err
	}
	iatEdged, _ := cfg.IatScheme.(*bins.Edged)
	return &shardState{
		id:         id,
		sizeScheme: cfg.SizeScheme,
		iatScheme:  cfg.IatScheme,
		sizeLUT:    sizeLUT,
		iatEdged:   iatEdged,
		sizeCounts: make([]float64, cfg.SizeScheme.NumBins()),
		iatCounts:  make([]float64, cfg.IatScheme.NumBins()),
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
// definition. Returns nil for schemes whose bin count exceeds uint8.
func buildSizeLUT(s bins.Scheme) []uint8 {
	if s.NumBins() > 256 {
		return nil
	}
	lut := make([]uint8, 1<<16)
	for v := range lut {
		lut[v] = uint8(s.Index(float64(v)))
	}
	return lut
}

// shardWorker drains one shard's ring: data batches feed the shard
// state, a barrier cuts it. The ring is FIFO and has one producer, so
// arrival order is stream order and the cut lands at the same stream
// position on every shard — which is why snapshots are the same for any
// shard count.
//
//nslint:hotpath
func (p *Pipeline) shardWorker(st *shardState) {
	defer p.shardWG.Done()
	for {
		msg, ok := st.in.pop()
		if !ok {
			return
		}
		if msg.bar != nil {
			msg.bar.parts <- st.cut()
			continue
		}
		for i := range msg.items {
			st.process(&msg.items[i])
		}
		st.free.push(msg.items[:0])
	}
}

// process counts one packet and, if the reader selected it, feeds the
// incremental aggregates. This is the per-packet hot path — it must not
// allocate (pinned by TestPipelineHotPathAllocs).
func (st *shardState) process(it *item) {
	st.processed++
	if !it.sel {
		return
	}
	st.selected++
	if st.sizeLUT != nil {
		st.sizeCounts[st.sizeLUT[it.pkt.Size]]++
	} else {
		st.sizeCounts[st.sizeScheme.Index(float64(it.pkt.Size))]++
	}
	if it.hasGap {
		if st.iatEdged != nil {
			st.iatCounts[st.iatEdged.IndexLinear(float64(it.gapUS))]++
		} else {
			st.iatCounts[st.iatScheme.Index(float64(it.gapUS))]++
		}
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
//nslint:coldpath runs once per window cut, never per packet; a warm cut allocates one string, the reported keys
func (st *shardState) cut() shardPart {
	var bufs cutBufs
	select {
	case bufs = <-st.cutFree:
	default:
		bufs = cutBufs{size: make([]float64, len(st.sizeCounts)), iat: make([]float64, len(st.iatCounts))}
	}
	copy(bufs.size, st.sizeCounts)
	copy(bufs.iat, st.iatCounts)
	bufs.topk = st.topk.AppendTop(bufs.topk[:0], st.topkReport)
	part := shardPart{
		shard:       st.id,
		processed:   st.processed,
		selected:    st.selected,
		bufs:        bufs,
		activeFlows: st.flowCount.ActiveCount(),
		flows:       st.flowCount.Cut(),
	}
	st.processed, st.selected = 0, 0
	clearFloats(st.sizeCounts)
	clearFloats(st.iatCounts)
	st.topk.Reset()
	return part
}

func clearFloats(s []float64) {
	for i := range s {
		s[i] = 0
	}
}
