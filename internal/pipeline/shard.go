package pipeline

import (
	"netsample/internal/flows"
	"netsample/internal/nnstat"
	"netsample/internal/trace"
)

// item is one selected packet as the reader routes it: decoded, with
// its 5-tuple's flows.TupleHash, made at ingest for the shard choice
// and both aggregates, so an item is 32 B.
type item struct {
	pkt  trace.Packet
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

// shardState is one worker shard. Field ownership is strict: in and
// free are the channels connecting it to the reader; everything else is
// worker-goroutine-only (and the Run caller's after shardWG.Wait).
type shardState struct {
	id   int
	in   <-chan shardMsg // the reader's out channel for this shard
	free chan<- []item   // emptied item buffers, back to the reader

	// Worker-owned.
	// cutFree returns the top-k buffers of merged shardParts from the
	// snapshot collector, so cut reuses them instead of allocating one
	// per window. It holds one per barrier that can exist (see
	// Pipeline.barFree): a shard can be that many cuts ahead of a
	// collector busy in OnSnapshot.
	cutFree    chan []nnstat.Entry
	flowCount  *flows.Counter
	topk       *nnstat.TopK
	topkReport int
	keyBuf     [13]byte
}

// newShardState allocates one shard's aggregates; New wires in the
// channels.
func newShardState(id int, cfg *Config) (*shardState, error) {
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
		cutFree:    make(chan []nnstat.Entry, cfg.QueueDepth+2),
		flowCount:  flowCount,
		topk:       topk,
		topkReport: cfg.TopKReport,
	}, nil
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
	var topk []nnstat.Entry
	select {
	case topk = <-st.cutFree:
	default:
	}
	part := shardPart{
		shard:       st.id,
		topk:        st.topk.AppendTop(topk[:0], st.topkReport),
		activeFlows: st.flowCount.ActiveCount(),
		flows:       st.flowCount.Cut(),
	}
	st.topk.Reset()
	return part
}
