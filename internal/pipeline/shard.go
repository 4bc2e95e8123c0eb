package pipeline

import (
	"runtime"

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

// shardMsg travels a (ingest worker, shard) ring: a data batch or a
// window barrier fragment. seq is the global unit sequence number — a
// shard worker consumes its rings in seq order, which restores exact
// stream order across the parallel ingest stage. Units contributing
// nothing to a shard send no message at all; the worker's epoch
// counter is the progress signal for the gaps. dropped is the
// producing worker's drop delta for this shard since its previous
// successful publish on this ring.
type shardMsg struct {
	seq     uint64
	items   []item
	bar     *barrier
	dropped uint64
}

// histBufs is one window's pair of histogram copies, travelling from a
// shard's cut to the collector inside a shardPart and back for reuse.
type histBufs struct{ size, iat []float64 }

// shardState is one worker shard. Field ownership is strict: in and
// free are the rings connecting it to each ingest worker (indexed by
// worker id); epochs are the workers' progress counters (loaded only);
// everything else is worker-goroutine-only (and the Run caller's after
// shardWG.Wait).
type shardState struct {
	id     int
	in     []*spsc[shardMsg] // consume side of the (worker, shard) rings
	free   []*spsc[[]item]   // recycle side, back to each worker
	epochs []*epoch          // each worker's published progress

	// Sequencing state of the consume loop, allocated cold in New,
	// touched only by the shard goroutine: per-worker retired flag and
	// skip-run frontier, and the spin budget for epoch waits.
	retired   []bool
	skipUntil []uint64
	spin      spinState

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
	// histFree returns the histogram copies of merged shardParts from
	// the snapshot collector, so cut reuses them instead of allocating a
	// pair per window. Two pairs cover the steady state: one being
	// merged while the next window's is cut.
	histFree   chan histBufs
	flowTab    *flows.Table
	topk       *nnstat.TopK
	topkReport int
	keyBuf     [13]byte
	processed  uint64
	selected   uint64
	dropped    uint64 // drop deltas accumulated from ring messages this window
}

// newShardState allocates one shard's aggregates. The rings are wired
// in by New once the ingest workers exist; sizeLUT is built once by New
// and shared read-only across shards.
func newShardState(id int, cfg *Config, sizeLUT []uint8) (*shardState, error) {
	flowTab, err := flows.NewTable(cfg.FlowTimeoutUS)
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
		histFree:   make(chan histBufs, 2),
		flowTab:    flowTab,
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

// shardWorker drains one shard's rings in global sequence order: the
// ring owning the next sequence number is in[seq mod N]. Sequence
// numbers are resolved by epoch-batched sequencing (DESIGN.md §15):
// a number whose ring holds a message for it is consumed; a number
// proven empty is skipped — and the proof costs no per-unit message.
//
// Resolution of `next` on ring w, in order:
//
//   - retired[w] or next < skipUntil[w]: already proven empty — skip
//     locally, no shared access at all.
//   - ring head has seq == next: consume it (data feeds the shard
//     state, a barrier fragment counts toward the cut).
//   - ring head has seq > next: the ring is FIFO and the worker
//     publishes in increasing seq order, so nothing below head.seq
//     remains for us — skip the run up to head.seq. (This also covers
//     batches shed under the Drop policy.)
//   - ring empty, worker's epoch == epochClosed: the worker has
//     exited; the sentinel is stored after its ring closes, and the
//     empty peek came after we read the sentinel, so the ring is
//     drained — retire it.
//   - ring empty, worker's epoch done > next: every unit below done
//     is fully published, and the peek (ordered after the epoch load)
//     saw none of it on our ring — skip the whole run up to done.
//   - ring empty, done <= next, ring closed: the final push/sentinel
//     raced between our epoch load and the peek; re-resolve.
//   - otherwise `next` is genuinely undecided: wait (spin-then-park)
//     on the worker's epoch, then re-resolve with fresh state.
//
// The epoch load MUST precede the peek: loading done > next proves all
// pushes below done completed before the load, so a LATER empty peek
// proves none of them were for this shard. With the opposite order a
// push could land between the peek and the load and be skipped over —
// losing data. (All operations involved are seq-cst atomics.)
//
// A barrier completes after one fragment from each live worker,
// cutting every shard at the same stream position, exactly as before:
// epoch batching changes how "nothing for you" is communicated, never
// which messages exist or the order they are consumed in — which is
// why determinism for any worker/shard count survives.
//
//nslint:hotpath
func (p *Pipeline) shardWorker(st *shardState) {
	defer p.shardWG.Done()
	n := uint64(len(st.in))
	live := int(n)
	var (
		next     uint64
		barFrags int
		curBar   *barrier
	)
	for live > 0 {
		w := next % n
		if st.retired[w] || next < st.skipUntil[w] {
			next++
			continue
		}
		done := st.epochs[w].done.Load() // before the peek; see above
		head, ok := st.in[w].tryPeek()
		if !ok {
			switch {
			case done == epochClosed:
				st.retired[w] = true
				live--
				next++
			case done > next:
				st.skipUntil[w] = done
				next++
			case st.in[w].isClosed():
				runtime.Gosched() // sentinel is one store away; re-resolve
			default:
				st.epochs[w].wait(next, &st.spin)
			}
			continue
		}
		if head.seq > next {
			st.skipUntil[w] = head.seq
			next++
			continue
		}
		msg := *head
		st.in[w].advance()
		next++
		st.dropped += msg.dropped
		if msg.bar != nil {
			curBar = msg.bar
			barFrags++
			if barFrags == int(n) {
				part := st.cut()
				curBar.parts <- part
				curBar = nil
				barFrags = 0
			}
			continue
		}
		for i := range msg.items {
			st.process(&msg.items[i])
		}
		st.free[w].push(msg.items[:0])
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
	st.flowTab.AddHashed(it.hash, it.pkt)
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
//nslint:coldpath runs once per window cut; its copies amortize over the window's packets
func (st *shardState) cut() shardPart {
	var hist histBufs
	select {
	case hist = <-st.histFree:
	default:
		hist = histBufs{make([]float64, len(st.sizeCounts)), make([]float64, len(st.iatCounts))}
	}
	copy(hist.size, st.sizeCounts)
	copy(hist.iat, st.iatCounts)
	part := shardPart{
		shard:       st.id,
		processed:   st.processed,
		selected:    st.selected,
		dropped:     st.dropped,
		sizeCounts:  hist.size,
		iatCounts:   hist.iat,
		activeFlows: st.flowTab.ActiveCount(),
		topk:        st.topk.Top(st.topkReport),
	}
	part.flows = flows.CountFlows(st.flowTab.Flush())
	st.processed, st.selected, st.dropped = 0, 0, 0
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
