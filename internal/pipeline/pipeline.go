// Package pipeline composes the repository's streaming pieces into the
// operational system of the paper's Section 2: a node that continuously
// samples its forwarding path and answers NOC queries. It is the
// production-shaped counterpart of the batch machinery in internal/core
// — ingest → shard → sample → aggregate → export over live packet
// streams, with bounded queues that apply backpressure, and windowed
// snapshots a collector can poll.
//
// Architecture (DESIGN.md §10):
//
//	      reader (Run goroutine)
//	         │  record windows + selection bitmaps + gap stamps +
//	         │  window barriers, one SPSC ring
//	      ingest worker                (decode, 5-tuple hashing)
//	    ┌────┴─────────────┐           one SPSC ring per shard
//	shard 0      …      shard S-1      (FIFO consume)
//	    │ snapshot parts   │
//	    └─── collector ────┘           merge / score / publish
//
// The reader runs on the goroutine that calls Run: it pulls windows of
// raw NSTR records from the source (any other Source is encoded into
// record windows at the edge, see recordAdapter), reads only their
// timestamps, and decides everything order-sensitive: window barriers,
// the interarrival gap chain, and selection. It owns the run's one
// online.Sampler — one of the paper's methods applied to the link, not
// to a hash partition of it — offers it every packet in stream order,
// and stamps the verdicts on each window as a bitmap before handing the
// windows to the ingest worker. The ingest worker decodes each window,
// hashes the packets to shards by a deterministic hash of the 5-tuple
// (flows.TupleHash, which rides the item into the shard's flow counter
// and sketch) — so every flow lives on exactly one shard — stamps each
// packet with its interarrival gap against its stream predecessor (the
// quantity a monitor with a last-packet timestamp register observes)
// and its selection bit, and publishes per-shard item batches into
// lock-free single-producer/single-consumer rings, one per shard. Every
// ring is FIFO, so the packets of one shard are processed in exact
// stream order. The selected set, and so every snapshot, is the same
// for any shard count, and equals the batch evaluator's on the same
// trace and seed (FuzzOracleChain).
//
// All queues are bounded; when a shard falls behind, its full ring
// blocks the fan-out, and the backpressure reaches the reader. Nothing
// is shed: every window has Processed == Offered and Dropped == 0.
//
// Each shard keeps incremental aggregates over the selected packets it
// receives: per-bin size and interarrival histogram counts
// (bins.Scheme), a flows.Counter of transport flows, and an nnstat.TopK
// heavy-hitter sketch. Windowing is driven by a virtual
// clock — the packet timestamps themselves — so a run is bit-for-bit
// reproducible regardless of wall-clock speed or scheduling: the reader
// emits a window barrier as one marker unit, the ingest worker forwards
// it through every shard ring, and a shard's cut happens when the marker
// arrives — because it travels in order with the data, a snapshot
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
// Config.Policy to Block in a struct literal: a full ring always blocks
// the fan-out, and New rejects any other value.
type OverloadPolicy int

// Block is the one OverloadPolicy: the fan-out waits for ring space.
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
	// to 1 in a struct literal: the ingest stage is single (DESIGN.md
	// §15), and New rejects anything but 0 or 1.
	IngestWorkers int
	// QueueDepth bounds each ring of the fan-out tree, in batches
	// (DefaultQueueDepth if zero).
	QueueDepth int
	// BatchSize is the reader's batch size in packets
	// (DefaultBatchSize if zero). Larger batches amortize source calls
	// and ring operations; 1 disables batching.
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

	// SizeScheme and IatScheme bin the two characterization targets
	// (paper schemes if nil).
	SizeScheme bins.Scheme
	IatScheme  bins.Scheme

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
	// (core.Evaluator.ScoreCounts). Their schemes must match
	// SizeScheme/IatScheme bin-for-bin.
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
// node. Build with New, drive with Run, interrogate with Latest or
// Snapshots.
type Pipeline struct {
	cfg    Config
	shards []*shardState
	ingest *ingestState

	barriers chan *barrier
	// barFree returns merged barriers from the collector to the reader,
	// which owns them: cap(barriers) queued, one being merged and one
	// being stamped are all that exist at once, so the ring holds them
	// all and emitBarrier allocates only until the set is complete.
	barFree chan *barrier
	// decided is the adaptive handshake, one token per barrier: the
	// collector sends the next window's k, the reader parks on it in
	// emitBarrier. The reader waits out each decision before it cuts
	// again, so one slot is always enough.
	decided chan int
	useq    uint64 // data units sent, reader-owned: selSlot's index into selPool
	winSeq  uint64 // window sequence, reader-owned

	latest atomic.Pointer[Snapshot]
	mu     sync.Mutex
	snaps  []*Snapshot

	stopReq  atomic.Bool
	started  atomic.Bool
	ingestWG sync.WaitGroup
	shardWG  sync.WaitGroup
	done     chan struct{}

	// sampler is the run's one selection schedule, reader-owned: what
	// Config.NewSampler built, or under Config.Adaptive a systematic
	// sampler that emitBarrier re-anchors when the controller moves k.
	sampler online.Sampler
	// selPool holds the selection bitmaps the reader stamps on data
	// units, one BatchSize-bit slot per unit, reused round-robin by unit
	// count (selSlot argues why a slot is free again by then).
	selPool [][]uint64

	// Adaptive-control state (Config.Adaptive). adaptK is
	// collector-owned; the reader learns each decision through decided.
	// decisions is guarded by mu.
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
	if cfg.SizeScheme == nil {
		cfg.SizeScheme = bins.PacketSize()
	}
	if cfg.IatScheme == nil {
		cfg.IatScheme = bins.Interarrival()
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
	if cfg.SizeEval != nil && cfg.SizeEval.NumBins() != cfg.SizeScheme.NumBins() {
		return nil, fmt.Errorf("%w: SizeEval has %d bins, SizeScheme %d",
			ErrConfig, cfg.SizeEval.NumBins(), cfg.SizeScheme.NumBins())
	}
	if cfg.IatEval != nil && cfg.IatEval.NumBins() != cfg.IatScheme.NumBins() {
		return nil, fmt.Errorf("%w: IatEval has %d bins, IatScheme %d",
			ErrConfig, cfg.IatEval.NumBins(), cfg.IatScheme.NumBins())
	}

	p := &Pipeline{
		cfg:      cfg,
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
	sizeLUT := buildSizeLUT(cfg.SizeScheme)
	for i := range p.shards {
		st, err := newShardState(i, &cfg, sizeLUT)
		if err != nil {
			return nil, err
		}
		p.shards[i] = st
	}
	p.ingest = newIngestState(&cfg)
	for _, st := range p.shards {
		st.in = p.ingest.out[st.id]
		st.free = p.ingest.freeItems[st.id]
	}
	// One bitmap slot per unit that can be between the reader's fill and
	// the end of the worker's partition pass; see selSlot for the bound.
	words := (cfg.BatchSize + 63) / 64
	backing := make([]uint64, (p.ingest.in.cap()+2)*words)
	p.selPool = make([][]uint64, len(backing)/words)
	for i := range p.selPool {
		p.selPool[i] = backing[i*words : (i+1)*words]
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
	p.ingestWG.Add(1)
	go p.ingestWorker()
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

	p.ingest.in.close()
	p.ingestWG.Wait()
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

// Snapshots returns the published snapshots in window order.
func (p *Pipeline) Snapshots() []*Snapshot {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]*Snapshot(nil), p.snaps...)
}

// readRaw is the sequential stage: it owns the virtual clock, the
// window barriers, the gap chain and the sampler, and runs on the Run
// caller's goroutine. The shards may run in parallel because everything
// order-sensitive is decided here. It forwards the source's record
// windows to the ingest worker undecoded — decode, 5-tuple hash, and gap
// stamp run there (partitionRaw) — and itself touches only the 8-byte
// timestamp field of each record: it is what the window cut compares
// and what the sampler is offered. The sampler is not reset at a cut:
// its schedule continues across windows, exactly as a batch sampler
// runs uninterrupted over the whole trace.
//
// Window cuts slice the source's window at record granularity, so a
// unit never spans a barrier. How the stream is grouped into units is
// invisible: snapshots are invariant to it.
//
//nslint:hotpath
func (p *Pipeline) readRaw(rs RawBatchSource) error {
	var (
		srcErr    error
		prevUS    int64
		winStart  int64
		nextWin   int64
		windowing = p.cfg.WindowUS > 0
		offered   uint64
		lastTime  int64
		firstSeen bool
		sentFirst bool
	)
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
				first := rawTime(raw, 0)
				winStart = first
				nextWin = first + p.cfg.WindowUS
				// The stream's first packet has no predecessor: seeding the
				// chain with its own timestamp yields gap 0, and noGap0
				// masks the observation in the worker.
				prevUS = first
			}
			seg := 0
			sel := p.selSlot()
			for i := 0; i < n; {
				t := rawTime(raw, i)
				if windowing && t >= nextWin {
					if i > seg {
						p.sendRawUnit(raw, seg, i, sel, prevUS, !sentFirst)
						sentFirst = true
						prevUS = lastTime
						seg = i
					}
					p.emitBarrier(winStart, nextWin, false, offered)
					offered = 0
					winStart = nextWin
					nextWin += p.cfg.WindowUS
					// If a unit was sent above, the one opening at record i
					// has a different slot.
					sel = p.selSlot()
					continue
				}
				if p.sampler.Offer(t) {
					sel[(i-seg)>>6] |= 1 << (uint(i-seg) & 63)
				}
				offered++
				lastTime = t
				i++
			}
			// A cut moves seg only to a record the loop then consumes, so
			// at least one record is always left to send.
			p.sendRawUnit(raw, seg, n, sel, prevUS, !sentFirst)
			sentFirst = true
			prevUS = lastTime
		}
		if err != nil {
			break
		}
	}
	endUS := lastTime + 1
	if !firstSeen {
		winStart, endUS = 0, 0
	}
	p.emitBarrier(winStart, endUS, true, offered)
	return srcErr
}

// rawTime reads record i's timestamp field from a raw record window —
// the only field the raw reader ever decodes.
//
//nslint:hotpath
func rawTime(raw []byte, i int) int64 {
	return int64(binary.LittleEndian.Uint64(raw[i*trace.RecordLen:]))
}

// selSlot returns the cleared selection bitmap of the unit the reader
// builds next (data unit useq). Slots are reused every len(selPool) =
// C+2 data units, C the in ring's capacity, with no hand-back from the
// ingest worker. That is safe because there is one worker behind one
// FIFO ring: the C+1 units between q-(C+2) and q (and any barriers
// among them) have all been pushed before the reader fills unit q, and
// the last of those pushes found ring space only after the worker had
// popped the unit following q-(C+2), which it does after its partition
// pass over q-(C+2) — the slot's one reader — has returned. The ring's
// head store/load pair orders the two. Reader goroutine only.
//
//nslint:hotpath
func (p *Pipeline) selSlot() []uint64 {
	sel := p.selPool[p.useq%uint64(len(p.selPool))]
	clear(sel)
	return sel
}

// sendRawUnit hands the [from, to) record sub-window of raw, with its
// selection bitmap, to the ingest worker. The slice aliases the
// source's window (stable until Run returns, per RawBatchSource); the
// bounded in ring is the backpressure. Reader goroutine only.
//
//nslint:hotpath
func (p *Pipeline) sendRawUnit(raw []byte, from, to int, sel []uint64, prevUS int64, noGap0 bool) {
	p.ingest.in.push(srcUnit{
		raw:    raw[from*trace.RecordLen : to*trace.RecordLen],
		sel:    sel,
		prevUS: prevUS,
		noGap0: noGap0,
	})
	p.useq++
}

// emitBarrier cuts the stream at the current read position: one
// barrier unit, which the ingest worker forwards through each shard
// ring, so every shard observes the cut at the same stream offset.
//
// In adaptive mode the cut doubles as the control-loop handshake: the
// reader parks on p.decided until the collector has merged the window
// and run the control step, then adopts the decided k. Parking here
// cannot deadlock — every unit of the window and its barrier was pushed
// before the wait, so the shards can always reach the cut and the
// collector always sends the decision. The wait is what makes adaptive
// runs deterministic: every packet of window w+1 is offered to the
// sampler under the k decided from window w, regardless of how the
// goroutines interleave.
//
// The barrier itself comes from barFree when the collector has handed
// one back (DESIGN.md §10, "Who owns a window's objects"): a steady-state
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
	p.ingest.in.push(srcUnit{bar: bar})
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
