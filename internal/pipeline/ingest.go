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
// max records, plus the record count. The reader decodes only the
// records its sampler selects, straight out of the window.
//
// Contract: records in a window are consecutive stream records;
// complete records precede any error; exhaustion is (nil, 0, io.EOF).
// A returned window must stay valid and unmodified until the next
// NextRawBatch call: the reader copies each selected record into an
// item before it asks for more, and keeps no view of the window.
// *trace.MapReader and *trace.Replayer hand out views (of the mapped
// region, of the trace's own packets); recordAdapter reuses one buffer.
type RawBatchSource interface {
	NextRawBatch(max int) ([]byte, int, error)
}

// recordAdapter is the one edge adapter between per-packet sources and
// the reader: it pulls up to a batch of packets into its own scratch and
// encodes them into its one record window, which RawBatchSource lets it
// overwrite on every call. It checks the stop flag after every packet,
// so Stop keeps its packet-granular meaning on per-packet sources: the
// window ends at the first packet delivered after the stop request.
type recordAdapter struct {
	src     Source
	stop    *atomic.Bool
	scratch []trace.Packet
	raw     []byte
}

func newRecordAdapter(src Source, batchSize int, stop *atomic.Bool) *recordAdapter {
	return &recordAdapter{
		src:     src,
		stop:    stop,
		scratch: make([]trace.Packet, batchSize),
		raw:     make([]byte, batchSize*trace.RecordLen),
	}
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
	raw := a.raw[:n*trace.RecordLen]
	trace.EncodeRecords(raw, dst[:n])
	return raw, n, err
}

// ingestState is the reader's fan-out to the shards: one channel per
// shard (out), the item buffers each shard hands back (freeItems), and
// the batch the reader is filling for each shard (cur). The reader
// sends on every out channel and receives on every freeItems one;
// shard s receives on out[s] and sends its emptied buffers on
// freeItems[s].
type ingestState struct {
	out       []chan shardMsg
	freeItems []chan []item
	cur       [][]item
}

// newIngestState allocates the fan-out's channels and buffer pools.
func newIngestState(cfg *Config) *ingestState {
	ig := &ingestState{
		out:       make([]chan shardMsg, cfg.Shards),
		freeItems: make([]chan []item, cfg.Shards),
		cur:       make([][]item, cfg.Shards),
	}
	for s := range ig.out {
		ig.out[s] = make(chan shardMsg, cfg.QueueDepth)
		// Item buffers per shard edge: QueueDepth queued + 1 at the
		// shard + 1 filling. The free channel holds all of them, so a
		// shard's hand-back never blocks.
		ig.freeItems[s] = make(chan []item, cfg.QueueDepth+2)
		for i := 0; i < cfg.QueueDepth+1; i++ {
			ig.freeItems[s] <- make([]item, 0, cfg.BatchSize)
		}
		ig.cur[s] = make([]item, 0, cfg.BatchSize)
	}
	return ig
}

// route is the reader's per-selected-record step: it decodes record
// rec, whose timestamp t the reader has already read, from its two
// remaining 8-byte words, derives its shard from the same registers
// (the hash words re-pack the record's bytes 12-23 and 10, see
// DecodeBatch for the layout), and writes the finished item straight
// into that shard's batch — with the
// hash itself, so the shard's flow table and sketch never rehash the
// tuple. A batch goes to its shard when it reaches BatchSize items, and
// the reader flushes the partial ones before every barrier (publish),
// so between cuts a shard gets one message per BatchSize items.
// Pinned item by item against a field-wise reference by
// TestReaderRoutesLikeReference, and the send rule by
// TestShardsGetFullBatches.
//
//nslint:hotpath
func (ig *ingestState) route(rec []byte, t int64) {
	w1 := binary.LittleEndian.Uint64(rec[8:16])
	w2 := binary.LittleEndian.Uint64(rec[16:24])
	h := flows.TupleHash(w1>>32|w2<<32, w2>>32|uint64(uint8(w1>>16))<<32)
	var s uint32
	if n := uint32(len(ig.out)); n > 1 {
		s = h % n
	}
	// Fill the item where it lies, not on the stack to be copied: every
	// item buffer is made with capacity BatchSize, which no batch
	// exceeds, so the reslice cannot overrun.
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
	it.hash = h
	if len(cur) == cap(cur) {
		ig.send(int(s))
	}
}

// DecodeBatch is route's layout arithmetic as a whole-window kernel,
// kept for measurement: it decodes every record of a window of raw NSTR
// record bytes, selected or not, into dst and fills shards[i] with each
// packet's 5-tuple shard index (the two TupleHash words are loaded
// straight out of the record's wire layout: addresses in bytes 12-19,
// ports in 20-23, protocol in byte 10) and gaps[i] with its
// interarrival gap, chaining from prevUS, the timestamp of the record
// preceding the window. It returns the record count,
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

// publish flushes the reader's partial per-shard item batches: shards
// with items get one message, shards without get nothing. The reader
// calls it before it sends a barrier, so a barrier follows every item
// of its window on each channel.
//
//nslint:hotpath
func (ig *ingestState) publish() {
	for s := range ig.out {
		if len(ig.cur[s]) > 0 {
			ig.send(s)
		}
	}
}

// send hands shard s its batch, blocking while the shard's channel is
// full, and takes a free buffer to fill next. Once the send succeeds at
// most QueueDepth buffers are queued and one is at the shard, so one of
// the QueueDepth+2 is free and the receive does not wait.
//
//nslint:hotpath
func (ig *ingestState) send(s int) {
	ig.out[s] <- shardMsg{items: ig.cur[s]}
	ig.cur[s] = (<-ig.freeItems[s])[:0]
}
