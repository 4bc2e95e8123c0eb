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

// shardState is one worker shard. Field ownership is strict: in is the
// channel connecting it to the reader; everything else is
// worker-goroutine-only (and the Run caller's after shardWG.Wait).
type shardState struct {
	id int             // the shard's slot in every barrier's parts
	in <-chan shardMsg // the reader's out channel for this shard

	// Worker-owned.
	flowCount  *flows.Counter
	topk       *nnstat.TopK
	topkReport int
	keyBuf     [13]byte
}

// newShardState allocates one shard's aggregates; New wires in the
// channel from the reader.
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
		flowCount:  flowCount,
		topk:       topk,
		topkReport: cfg.TopKReport,
	}, nil
}

// shardWorker drains one shard's channel until Run closes it: data
// batches feed the shard state, a barrier cuts it into the shard's slot
// of the barrier. The channel is FIFO and has one sender, so arrival
// order is stream order and the cut lands at the same stream position
// on every shard — which is why snapshots are the same for any shard
// count.
//
//nslint:hotpath
func (p *Pipeline) shardWorker(st *shardState) {
	defer p.shardWG.Done()
	for msg := range st.in {
		if msg.bar != nil {
			st.cut(&msg.bar.parts[st.id])
			msg.bar.cut.Done()
			continue
		}
		for i := range msg.items {
			st.process(&msg.items[i])
		}
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

// cut snapshots the shard's window-local aggregates into its slot of a
// barrier, in place, and resets them for the next window.
//
//nslint:coldpath runs once per window cut, never per packet; a warm cut allocates only a fresh report arena for the sketch's keys, about once every 64 cuts
func (st *shardState) cut(part *shardPart) {
	part.topk = st.topk.AppendTop(part.topk[:0], st.topkReport)
	part.activeFlows = st.flowCount.ActiveCount()
	part.flows = st.flowCount.Cut()
	st.topk.Reset()
}
