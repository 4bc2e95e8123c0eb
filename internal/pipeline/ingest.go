package pipeline

import (
	"encoding/binary"
	"sync/atomic"

	"netsample/internal/flows"
	"netsample/internal/packet"
	"netsample/internal/trace"
)

// RawBatchSource is the pipeline's native ingest form: windows of raw
// NSTR record bytes (length a multiple of trace.RecordLen) for up to
// max records, plus the record count. Decoding happens in the ingest
// worker — fused with shard hashing and gap stamping in one pass —
// rather than on the reader goroutine.
//
// Contract: records in a window are consecutive stream records;
// complete records precede any error; exhaustion is (nil, 0, io.EOF).
// Every returned window must remain valid and immutable until the
// pipeline's Run returns — the in ring holds windows from many calls
// at once. *trace.MapReader and *trace.Replayer satisfy this by
// construction (their windows are views: of the mapped region until
// Close, of the trace's own packets); a reader recycling one scratch
// buffer per call must NOT implement this interface.
type RawBatchSource interface {
	NextRawBatch(max int) ([]byte, int, error)
}

// recordAdapter is the one edge adapter between per-packet sources and
// the reader: it pulls up to a batch of packets into its own scratch and
// encodes them into a fresh record window. It checks the stop flag after
// every packet, so Stop keeps its packet-granular meaning on per-packet
// sources: the window ends at the first packet delivered after the stop
// request.
type recordAdapter struct {
	src     Source
	stop    *atomic.Bool
	scratch []trace.Packet
}

func newRecordAdapter(src Source, batchSize int, stop *atomic.Bool) *recordAdapter {
	return &recordAdapter{src: src, stop: stop, scratch: make([]trace.Packet, batchSize)}
}

//nslint:hotpath
func (a *recordAdapter) NextRawBatch(max int) ([]byte, int, error) {
	dst := a.scratch[:max]
	var (
		n   int
		err error
	)
	for n < len(dst) {
		if dst[n], err = a.src.Next(); err != nil {
			break
		}
		n++
		if a.stop.Load() {
			break
		}
	}
	if n == 0 {
		return nil, 0, err
	}
	//nslint:allow hotalloc one window per BatchSize packets, not per packet: RawBatchSource forbids reusing a window before Run returns, so each batch gets its own and the GC reclaims it once the worker has partitioned it
	raw := make([]byte, n*trace.RecordLen)
	trace.EncodeRecords(raw, dst[:n])
	return raw, n, err
}

// srcUnit is one element of the reader→ingest stream: a raw record
// window (raw, prevUS, noGap0) or a window barrier (bar). The in ring
// and the shard rings are FIFO, so stream order is the order of
// arrival everywhere downstream.
//
// prevUS is the timestamp of the stream packet preceding the window's
// first record, which lets the worker compute interarrival gaps
// locally; noGap0 marks the unit opening the stream, whose first packet
// has no predecessor. sel is the reader's selection verdict for the
// unit's records, one bit each (record i is bit i&63 of word i>>6): the
// worker copies bits and never evaluates a schedule, so the selected
// set cannot depend on the shard count. The slot belongs to the
// reader's pool; the worker only reads it, and only during its
// partition pass over the unit (Pipeline.selSlot).
type srcUnit struct {
	bar *barrier

	raw    []byte
	sel    []uint64
	prevUS int64
	noGap0 bool
}

// ingestState is the ingest worker: it consumes the unit stream, hashes
// packets to shards, and publishes per-shard item batches. Field
// ownership: in connects to the reader; out[s] and freeItems[s] connect
// to shard s; cur is worker-local.
type ingestState struct {
	in        *spsc[srcUnit]
	out       []*spsc[shardMsg]
	freeItems []*spsc[[]item]
	cur       [][]item
}

// newIngestState allocates the ingest worker's rings and buffer pools.
func newIngestState(cfg *Config) *ingestState {
	ig := &ingestState{
		in:        newSPSC[srcUnit](cfg.QueueDepth),
		out:       make([]*spsc[shardMsg], cfg.Shards),
		freeItems: make([]*spsc[[]item], cfg.Shards),
		cur:       make([][]item, cfg.Shards),
	}
	for s := range ig.out {
		ig.out[s] = newSPSC[shardMsg](cfg.QueueDepth)
		// Item buffers per shard edge: QueueDepth queued + 1 at the
		// shard + 1 filling.
		ig.freeItems[s] = newSPSC[[]item](cfg.QueueDepth + 2)
		for i := 0; i < cfg.QueueDepth+1; i++ {
			ig.freeItems[s].tryPush(make([]item, 0, cfg.BatchSize))
		}
		ig.cur[s] = make([]item, 0, cfg.BatchSize)
	}
	return ig
}

// partitionRaw is the ingest kernel: one pass over a raw record window
// that decodes each packet from three 8-byte words, derives its shard
// from the same registers (the hash words re-pack the record's bytes
// 12-23 and 10, see DecodeBatch for the layout), stamps its
// interarrival gap and selection bit, and writes the finished item
// straight into the per-shard batch — with the hash itself, so the
// shard's flow table and sketch never rehash the tuple — keeping the
// record in registers between decode and item store. Pinned item by
// item against a field-wise reference by TestPartitionRawMatchesReference.
//
//nslint:hotpath
func (ig *ingestState) partitionRaw(u srcUnit) {
	nshards := uint32(len(ig.out))
	prev := u.prevUS
	raw := u.raw
	n := len(raw) / trace.RecordLen
	for i := 0; i < n; i++ {
		rec := raw[i*trace.RecordLen : i*trace.RecordLen+trace.RecordLen]
		w0 := binary.LittleEndian.Uint64(rec[0:8])
		w1 := binary.LittleEndian.Uint64(rec[8:16])
		w2 := binary.LittleEndian.Uint64(rec[16:24])
		sel := u.sel[i>>6]>>(uint(i)&63)&1 != 0
		// On one shard only a selected packet's hash has a consumer.
		var h, s uint32
		if sel || nshards > 1 {
			h = flows.TupleHash(w1>>32|w2<<32, w2>>32|uint64(uint8(w1>>16))<<32)
			if nshards > 1 {
				s = h % nshards
			}
		}
		t := int64(w0)
		// Fill the item where it lies, not on the stack to be copied: a
		// unit holds at most BatchSize packets and every recycled item
		// buffer is made with that capacity, so the reslice cannot overrun.
		cur := ig.cur[s][:len(ig.cur[s])+1]
		ig.cur[s] = cur
		it := &cur[len(cur)-1]
		it.pkt.Time = t
		it.pkt.Size = uint16(w1)
		it.pkt.Protocol = packet.Protocol(w1 >> 16)
		it.pkt.TCPFlags = uint8(w1 >> 24)
		it.pkt.Src = packet.Addr{byte(w1 >> 32), byte(w1 >> 40), byte(w1 >> 48), byte(w1 >> 56)}
		it.pkt.Dst = packet.Addr{byte(w2), byte(w2 >> 8), byte(w2 >> 16), byte(w2 >> 24)}
		it.pkt.SrcPort = uint16(w2 >> 32)
		it.pkt.DstPort = uint16(w2 >> 48)
		it.gapUS = t - prev
		it.hasGap = i > 0 || !u.noGap0
		it.sel = sel
		it.hash = h
		prev = t
	}
}

// DecodeBatch is partitionRaw's two-pass form, kept for measurement:
// it decodes a window of raw NSTR record bytes into dst and fills
// shards[i] with each packet's 5-tuple shard index (the two TupleHash
// words are loaded straight out of the record's wire layout: addresses
// in bytes 12-19, ports in 20-23, protocol in byte 10) and gaps[i] with
// its interarrival gap, chaining from prevUS, the timestamp of the
// record preceding the window. It returns the record count,
// min(len(dst), len(raw)/trace.RecordLen). nshards must be in [1, 256]
// so the indices fit uint8 — anything else panics rather than return
// truncated placements; shards and gaps must hold at least the record
// count.
//
// Exported so the benchmarks can time decode+hash+gap in isolation
// (BenchmarkDecodeBatch, nsbench's pipeline.partition_ns_per_pkt).
//
//nslint:hotpath
func DecodeBatch(dst []trace.Packet, shards []uint8, gaps []int64, raw []byte, prevUS int64, nshards int) int {
	if nshards < 1 || nshards > 256 {
		panic("pipeline: DecodeBatch: nshards must be in [1, 256]")
	}
	n := trace.DecodeRecords(dst, raw)
	pkts := dst[:n]
	sh := shards[:n]
	gp := gaps[:n]
	if nshards == 1 {
		for i := range sh {
			sh[i] = 0
		}
	} else {
		nsh := uint32(nshards)
		for i := range sh {
			rec := raw[i*trace.RecordLen : i*trace.RecordLen+trace.RecordLen]
			w1 := binary.LittleEndian.Uint64(rec[12:20])
			w2 := uint64(binary.LittleEndian.Uint32(rec[20:24])) | uint64(rec[10])<<32
			sh[i] = uint8(flows.TupleHash(w1, w2) % nsh)
		}
	}
	prev := prevUS
	for i := range pkts {
		t := pkts[i].Time
		gp[i] = t - prev
		prev = t
	}
	return n
}

// ingestWorker drains the unit ring: data units are decoded and
// partitioned into per-shard item batches, barriers are forwarded to
// every shard. A data unit pushes a message only to the rings of shards
// that receive packets from it.
//
//nslint:hotpath
func (p *Pipeline) ingestWorker() {
	defer p.ingestWG.Done()
	ig := p.ingest
	for {
		u, ok := ig.in.pop()
		if !ok {
			break
		}
		if u.bar != nil {
			for s := range ig.out {
				ig.out[s].push(shardMsg{bar: u.bar})
			}
			continue
		}
		ig.partitionRaw(u)
		ig.publish()
	}
	for s := range ig.out {
		ig.out[s].close()
	}
}

// publish flushes the worker's partitioned per-shard item batches for
// one consumed unit: shards with packets in the unit get one message,
// shards without get nothing. A full ring blocks the push.
//
//nslint:hotpath
func (ig *ingestState) publish() {
	for s := range ig.out {
		items := ig.cur[s]
		if len(items) == 0 {
			continue
		}
		ig.out[s].push(shardMsg{items: items})
		// Buffer accounting guarantees a free item buffer once a push
		// succeeds (QueueDepth queued + 1 at the shard + this one).
		next, _ := ig.freeItems[s].pop()
		ig.cur[s] = next[:0]
	}
}
