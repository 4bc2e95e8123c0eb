// Package pipeline composes the repository's streaming pieces into the
// operational system of the paper's Section 2: a node that continuously
// samples its forwarding path and answers NOC queries. It is the
// production-shaped counterpart of the batch machinery in internal/core
// — ingest → shard → sample → aggregate → export over live packet
// streams, with bounded queues that apply backpressure, and windowed
// snapshots a collector can poll.
//
// Architecture (DESIGN.md §5):
//
//	      reader (Run goroutine)       per packet: timestamp, cut, gap,
//	         │                         selection; per selected: decode,
//	         │                         hash, append to a shard batch
//	    ┌────┴─────────────┐           one channel per shard
//	shard 0      …      shard S-1      (FIFO consume)
//	    │ snapshot parts   │
//	    └─── collector ────┘           merge / score / publish
//
// The reader runs on the goroutine that calls Run: it pulls windows of
// raw NSTR records from the source (any other Source is encoded into
// record windows at the edge, see recordAdapter) and makes one pass
// over each, deciding everything order-sensitive. Per-packet work reads
// only a record's timestamp: the reader compares it with the window
// cut, chains the interarrival gap, and offers it to the run's one
// online.Sampler — one of the paper's methods applied to the link, not
// to a hash partition of it. An unselected record goes no further, as
// the paper's T3 firmware samples in the forwarding path so the
// categorizer never sees an unselected packet. The rest is per selected
// packet: the reader decodes it, hashes it to a shard by a
// deterministic hash of the 5-tuple (flows.TupleHash, which rides the
// item into the shard's flow counter and sketch) — so every flow lives
// on exactly one shard — stamps it with its interarrival gap against
// its stream predecessor (the quantity a monitor with a last-packet
// timestamp register observes), and appends it to its shard's batch.
// A batch goes to its shard over a buffered channel, one per shard,
// once it holds BatchSize items or at a cut; the shard bins each packet
// and feeds its flow counter and top-K. Every channel is FIFO with one
// sender, so the packets of one shard are processed in exact stream
// order. The selected set, and so every snapshot, is the same for any
// shard count, and equals the batch evaluator's on the same trace and
// seed (FuzzOracleChain).
//
// All queues are bounded; when a shard falls behind, its full channel
// blocks the reader. Nothing is shed: every window has
// Processed == Offered and Dropped == 0.
//
// Each shard keeps incremental aggregates over the selected packets it
// receives: integer per-bin size and interarrival histogram counts
// (bins.Edged), a flows.Counter of transport flows, and an nnstat.TopK
// heavy-hitter sketch. Windowing is driven by a virtual
// clock — the packet timestamps themselves — so a run is bit-for-bit
// reproducible regardless of wall-clock speed or scheduling: at a cut
// the reader flushes its batches and sends one barrier on every shard
// channel, and a shard's cut happens when the barrier arrives —
// because it travels in order with the data, a snapshot
// reflects exactly the packets that preceded the cut in the stream (a
// Chandy-Lamport-style consistent cut over the fan-out tree).
//
// A snapshot collector goroutine merges the per-shard partial states of
// each barrier into one Snapshot and, when reference Evaluators are
// configured, scores the merged histogram counts against the reference
// population with core.Evaluator.ScoreCounts — the same fused φ kernel
// the batch experiments use, which is what makes a snapshot's reports
// bit-identical to the batch evaluator's (pinned by FuzzOracleChain,
// the root package's serial oracle, and the cmd/nsd integration test).
package pipeline

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"netsample/internal/bins"
	"netsample/internal/core"
	"netsample/internal/online"
	"netsample/internal/trace"
)

// Source yields packets in arrival order, one at a time, returning
// io.EOF when the stream ends. It is the type Run accepts; what Run
// does with a Source that is also a RawBatchSource is described there.
type Source interface {
	Next() (trace.Packet, error)
}

// OverloadPolicy is accepted only because benchmarks/nsbench sets
// Config.Policy to Block in a struct literal: a full channel always blocks
// the fan-out, and New rejects any other value.
type OverloadPolicy int

// Block is the one OverloadPolicy: the fan-out waits for channel space.
const Block OverloadPolicy = 0

// Configuration defaults.
const (
	DefaultQueueDepth    = 8
	DefaultBatchSize     = 256
	DefaultFlowTimeoutUS = 15_000_000 // 15 s idle, the classic NetFlow default
	DefaultTopKCapacity  = 128
	DefaultTopKReport    = 10
)

// Config parameterizes a Pipeline.
type Config struct {
	// Shards is the number of worker shards (>= 1).
	Shards int
	// IngestWorkers is accepted only because benchmarks/nsbench sets it
	// to 1 in a struct literal: the reader is the one front-end
	// goroutine (DESIGN.md §5), and New rejects anything but 0 or 1.
	IngestWorkers int
	// QueueDepth bounds each shard's channel, in messages: batches and
	// barriers (DefaultQueueDepth if zero).
	QueueDepth int
	// BatchSize is the reader's batch size in packets
	// (DefaultBatchSize if zero). Larger batches amortize source calls
	// and channel sends; 1 disables batching.
	BatchSize int
	// Policy is accepted only as Block (or unset); see OverloadPolicy.
	Policy OverloadPolicy

	// NewSampler builds the run's one sampler, which the reader offers
	// every packet of the stream in arrival order. New calls it exactly
	// once, with 0; the parameter carries nothing. Required unless
	// Adaptive is set.
	NewSampler func(int) (online.Sampler, error)

	// Adaptive, when set, replaces NewSampler with the closed-loop
	// systematic schedule: the reader's sampler is a systematic one
	// whose k a per-window control step on the barrier steers within
	// [MinK, MaxK]. Requires WindowUS > 0 (the control loop lives on the
	// window cut). Mutually exclusive with NewSampler.
	Adaptive *AdaptiveConfig

	// FlowTimeoutUS is the flow idle timeout in µs
	// (DefaultFlowTimeoutUS if zero).
	FlowTimeoutUS int64
	// TopKCapacity is each shard's heavy-hitter sketch size
	// (DefaultTopKCapacity if zero).
	TopKCapacity int
	// TopKReport is the number of merged heavy hitters per Snapshot
	// (DefaultTopKReport if zero).
	TopKReport int

	// WindowUS is the snapshot window length on the virtual clock
	// (packet timestamps), in µs. Zero means a single window closed
	// when the source drains.
	WindowUS int64

	// SizeEval and IatEval, when set, score each snapshot's merged
	// histogram counts against their reference populations
	// (core.Evaluator.ScoreCounts). Their schemes must match the
	// paper's, bins.PacketSize and bins.Interarrival, bin-for-bin.
	SizeEval *core.Evaluator
	IatEval  *core.Evaluator

	// OnSnapshot, when set, is invoked from the snapshot collector
	// goroutine for every published Snapshot, in window order.
	OnSnapshot func(*Snapshot)
}

// Errors returned by New and Run.
var (
	ErrConfig = errors.New("pipeline: invalid configuration")
	ErrReused = errors.New("pipeline: Run may be called once per Pipeline")
)

// Pipeline is one running instance of the streaming characterization
// node. Build with New, drive with Run, interrogate with Latest; every
// window reaches Config.OnSnapshot, and the pipeline keeps only the
// latest.
type Pipeline struct {
	cfg    Config
	shards []*shardState
	ingest *ingestState // reader-owned sending side of the shard channels
	// nSize and nIat are the paper schemes' bin counts.
	nSize, nIat int

	barriers chan *barrier
	// barFree returns merged barriers from the collector to the reader,
	// which owns them: cap(barriers) queued, one being merged and one
	// being stamped are all that exist at once, so the channel holds them
	// all and emitBarrier allocates only until the set is complete.
	barFree chan *barrier
	// decided is the adaptive handshake, one token per barrier: the
	// collector sends the next window's k, the reader parks on it in
	// emitBarrier. The reader waits out each decision before it cuts
	// again, so one slot is always enough.
	decided chan int
	winSeq  uint64 // window sequence, reader-owned

	pub    pubSlabs // collector-owned
	latest atomic.Pointer[Snapshot]
	mu     sync.Mutex // guards decisions

	stopReq atomic.Bool
	started atomic.Bool
	shardWG sync.WaitGroup
	done    chan struct{}

	// sampler is the run's one selection schedule, reader-owned: what
	// Config.NewSampler built, or under Config.Adaptive a systematic
	// sampler that emitBarrier re-anchors when the controller moves k.
	sampler online.Sampler

	// Adaptive-control state (Config.Adaptive). adaptK is
	// collector-owned; the reader learns each decision through decided.
	adaptK    int
	decisions []AdaptiveDecision
}

// New validates cfg and builds a ready-to-Run pipeline.
func New(cfg Config) (*Pipeline, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("%w: Shards must be >= 1", ErrConfig)
	}
	if cfg.NewSampler == nil && cfg.Adaptive == nil {
		return nil, fmt.Errorf("%w: NewSampler is required", ErrConfig)
	}
	if cfg.Adaptive != nil {
		if cfg.NewSampler != nil {
			return nil, fmt.Errorf("%w: Adaptive replaces NewSampler; set only one", ErrConfig)
		}
		if err := cfg.Adaptive.validate(); err != nil {
			return nil, err
		}
		if cfg.WindowUS <= 0 {
			return nil, fmt.Errorf("%w: Adaptive requires WindowUS > 0", ErrConfig)
		}
	}
	if cfg.IngestWorkers != 0 && cfg.IngestWorkers != 1 {
		return nil, fmt.Errorf("%w: IngestWorkers must be 0 or 1", ErrConfig)
	}
	if cfg.Policy != Block {
		return nil, fmt.Errorf("%w: Policy must be Block", ErrConfig)
	}
	if cfg.BatchSize == 0 {
		cfg.BatchSize = DefaultBatchSize
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	if cfg.QueueDepth < 1 {
		return nil, fmt.Errorf("%w: QueueDepth must be >= 1", ErrConfig)
	}
	if cfg.BatchSize < 1 {
		return nil, fmt.Errorf("%w: BatchSize must be >= 1", ErrConfig)
	}
	if cfg.WindowUS < 0 {
		return nil, fmt.Errorf("%w: WindowUS must be >= 0", ErrConfig)
	}
	if cfg.TopKCapacity < 0 || cfg.TopKReport < 0 {
		return nil, fmt.Errorf("%w: TopKCapacity and TopKReport must be >= 0", ErrConfig)
	}
	if cfg.FlowTimeoutUS == 0 {
		cfg.FlowTimeoutUS = DefaultFlowTimeoutUS
	}
	if cfg.TopKCapacity == 0 {
		cfg.TopKCapacity = DefaultTopKCapacity
	}
	if cfg.TopKReport == 0 {
		cfg.TopKReport = DefaultTopKReport
	}
	size, iat := bins.PacketSize(), bins.Interarrival()
	if cfg.SizeEval != nil && cfg.SizeEval.NumBins() != size.NumBins() {
		return nil, fmt.Errorf("%w: SizeEval has %d bins, the size scheme %d",
			ErrConfig, cfg.SizeEval.NumBins(), size.NumBins())
	}
	if cfg.IatEval != nil && cfg.IatEval.NumBins() != iat.NumBins() {
		return nil, fmt.Errorf("%w: IatEval has %d bins, the interarrival scheme %d",
			ErrConfig, cfg.IatEval.NumBins(), iat.NumBins())
	}

	p := &Pipeline{
		cfg:      cfg,
		nSize:    size.NumBins(),
		nIat:     iat.NumBins(),
		barriers: make(chan *barrier, cfg.QueueDepth),
		barFree:  make(chan *barrier, cfg.QueueDepth+2),
		done:     make(chan struct{}),
	}
	var err error
	if cfg.Adaptive != nil {
		p.decided = make(chan int, 1)
		p.adaptK = cfg.Adaptive.StartK
		p.sampler, err = online.NewSystematic(cfg.Adaptive.StartK, 0)
	} else {
		p.sampler, err = cfg.NewSampler(0)
	}
	if err != nil {
		return nil, fmt.Errorf("pipeline: sampler: %w", err)
	}
	p.shards = make([]*shardState, cfg.Shards)
	sizeLUT := buildSizeLUT(size)
	p.ingest = newIngestState(&cfg)
	for i := range p.shards {
		st, err := newShardState(i, &cfg, size, iat, sizeLUT)
		if err != nil {
			return nil, err
		}
		st.in = p.ingest.out[i]
		st.free = p.ingest.freeItems[i]
		p.shards[i] = st
	}
	return p, nil
}

// Run drives the pipeline to completion: it reads src on the calling
// goroutine until io.EOF, a source error, or Stop, then drains the
// workers, publishes the final Snapshot, and returns the source error
// if any. A RawBatchSource (*trace.MapReader, *trace.Replayer) feeds the
// reader its record windows directly; any other source is read through a
// recordAdapter that encodes its packets into record windows first.
// Every source form produces identical snapshots. Run may be called
// once per Pipeline.
func (p *Pipeline) Run(src Source) error {
	if !p.started.CompareAndSwap(false, true) {
		return ErrReused
	}
	for _, st := range p.shards {
		p.shardWG.Add(1)
		go p.shardWorker(st)
	}
	go p.collect()

	rs, ok := src.(RawBatchSource)
	if !ok {
		rs = newRecordAdapter(src, p.cfg.BatchSize, &p.stopReq)
	}
	srcErr := p.readRaw(rs)

	for _, q := range p.ingest.out {
		close(q)
	}
	p.shardWG.Wait()
	close(p.barriers)
	<-p.done
	return srcErr
}

// Stop asks a concurrent Run to stop reading after the packet in
// flight (after the batch in flight for a source that delivers
// batches); Run then drains normally and publishes the final snapshot.
// Safe to call from any goroutine, any number of times.
func (p *Pipeline) Stop() { p.stopReq.Store(true) }

// Latest returns the most recently published snapshot.
func (p *Pipeline) Latest() (*Snapshot, bool) {
	s := p.latest.Load()
	return s, s != nil
}

// readRaw is the front end, the pipeline's one sequential stage: it
// owns the virtual clock, the window barriers, the gap chain, the
// sampler and the sending side of every shard channel, and runs on the
// Run caller's goroutine. The shards may run in parallel because
// everything order-sensitive is decided here. Per record it reads only
// the 8-byte timestamp field — what the window cut compares, the gap
// chain moves on and the sampler is offered; per selected record it
// also decodes, hashes and routes the record (route). The sampler is
// not reset at a cut: its schedule continues across windows, exactly as
// a batch sampler runs uninterrupted over the whole trace.
//
// A shard batch goes out when it is full (route), and the partial ones
// before each barrier. Items are copies, so no source window is read
// after the next NextRawBatch call. How the stream is grouped into
// batches is invisible: snapshots are invariant to it.
//
//nslint:hotpath
func (p *Pipeline) readRaw(rs RawBatchSource) error {
	var (
		srcErr    error
		winStart  int64
		nextWin   int64
		windowing = p.cfg.WindowUS > 0
		offered   uint64
		prevUS    int64 // timestamp of the last record read
		firstSeen bool
		hasGap    bool // false until the stream's first record is read
	)
	ig := p.ingest
	for !p.stopReq.Load() {
		raw, n, err := rs.NextRawBatch(p.cfg.BatchSize)
		if err != nil && !errors.Is(err, io.EOF) {
			//nslint:allow hotalloc error path: one wrap at stream end, never per packet
			srcErr = fmt.Errorf("pipeline: source: %w", err)
		}
		// Records returned alongside an error are still delivered.
		if n > 0 {
			if !firstSeen {
				firstSeen = true
				winStart = rawTime(raw, 0)
				nextWin = winStart + p.cfg.WindowUS
				// The stream's first record has no predecessor: its gap is
				// 0 and hasGap masks it.
				prevUS = winStart
			}
			for i := 0; i < n; {
				t := rawTime(raw, i)
				if windowing && t >= nextWin {
					p.emitBarrier(winStart, nextWin, false, offered)
					offered = 0
					winStart = nextWin
					nextWin += p.cfg.WindowUS
					continue
				}
				if p.sampler.Offer(t) {
					ig.route(raw[i*trace.RecordLen:(i+1)*trace.RecordLen], t, t-prevUS, hasGap)
				}
				prevUS = t
				hasGap = true
				offered++
				i++
			}
		}
		if err != nil {
			break
		}
	}
	endUS := prevUS + 1
	if !firstSeen {
		winStart, endUS = 0, 0
	}
	p.emitBarrier(winStart, endUS, true, offered)
	return srcErr
}

// rawTime reads record i's timestamp field from a raw record window.
//
//nslint:hotpath
func rawTime(raw []byte, i int) int64 {
	return int64(binary.LittleEndian.Uint64(raw[i*trace.RecordLen:]))
}

// emitBarrier cuts the stream at the current read position: it
// publishes the reader's shard batches, then sends one barrier on
// every shard channel, so every shard observes the cut at the same stream
// offset.
//
// In adaptive mode the cut doubles as the control-loop handshake: the
// reader parks on p.decided until the collector has merged the window
// and run the control step, then adopts the decided k. Parking here
// cannot deadlock — every item of the window and its barrier was sent
// before the wait, so the shards can always reach the cut and the
// collector always sends the decision. The wait is what makes adaptive
// runs deterministic: every packet of window w+1 is offered to the
// sampler under the k decided from window w, regardless of how the
// goroutines interleave.
//
// The barrier itself comes from barFree when the collector has handed
// one back (DESIGN.md §5, "Ownership"): a steady-state
// cut allocates nothing here.
//
//nslint:coldpath runs once per window boundary, never per packet; allocates only until QueueDepth+2 barriers exist
func (p *Pipeline) emitBarrier(startUS, endUS int64, final bool, offered uint64) {
	p.winSeq++
	var bar *barrier
	select {
	case bar = <-p.barFree:
	default:
		bar = &barrier{parts: make(chan shardPart, len(p.shards))}
	}
	bar.seq, bar.startUS, bar.endUS, bar.final, bar.offered = p.winSeq, startUS, endUS, final, offered
	p.ingest.publish()
	for _, q := range p.ingest.out {
		q <- shardMsg{bar: bar}
	}
	p.barriers <- bar
	if p.decided != nil {
		nextK := <-p.decided
		if sys := p.sampler.(*online.Systematic); nextK != sys.K() {
			// New granularity regime: the schedule restarts with the first
			// packet of the next window selected. SetGranularity alone
			// would anchor on the k-th; Reset moves the anchor back.
			//nslint:allow errdrop Decide clamps k to [MinK, MaxK] and validate pins MinK >= 1, so ErrBadGranularity is unreachable
			sys.SetGranularity(nextK)
			sys.Reset()
		}
	}
}
