// Package traffgen synthesizes packet traces with the statistical
// character of the paper's measurement environment: the FDDI entrance
// from SDSC into the NSFNET San Diego E-NSS in March 1993.
//
// The paper's trace is unavailable (650 MB of 1993 capture data), so the
// study's substitution rule applies: we generate the closest synthetic
// equivalent that exercises the same code paths. Traffic is produced by
// an aggregate of flow-level application sources — interactive telnet
// echo, acknowledgement streams mirroring inbound bulk transfers,
// outbound bulk data, request/response transactions, mail/news — whose
// superposition is calibrated so the hour-long trace reproduces the
// paper's Table 2 (per-second volume) and Table 3 (packet size and
// interarrival quantiles) population statistics:
//
//   - bimodal packet sizes with modes at 40 and 552 bytes, median 76,
//     mean ≈ 232, σ ≈ 236, max 1500;
//   - interarrival times with mean ≈ 2358 µs, σ ≈ 2734 µs, quantized to
//     the 400 µs capture clock;
//   - per-second packet rates with mean ≈ 424 pps, σ ≈ 85, positive skew
//     and heavy tails, produced by a slowly-varying lognormal rate
//     envelope on top of flow-level burstiness.
//
// All randomness flows from one seed, so a Config generates an identical
// trace on every run.
package traffgen

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"netsample/internal/dist"
	"netsample/internal/fanout"
	"netsample/internal/trace"
)

// Profile selects the measurement environment whose host population the
// generator synthesizes.
type Profile int

// The two environments of the paper: the SDSC entrance into the San
// Diego E-NSS (the main data set) and the FIX-West interexchange point
// at Moffett Field (the preliminary data set of footnote 3, with much
// broader aggregation on both sides of the link).
const (
	ProfileSDSC Profile = iota
	ProfileFIXWest
)

// String names the profile.
func (p Profile) String() string {
	if p == ProfileFIXWest {
		return "FIX-West"
	}
	return "SDSC"
}

// Config parameterizes a synthetic trace.
type Config struct {
	Seed     uint64
	Duration time.Duration // trace length
	ClockUS  int64         // capture clock granularity in µs (0 = none)
	Start    time.Time     // wall-clock time of timestamp zero

	// Profile selects the host/network population (default SDSC).
	Profile Profile

	// TargetPPS is the long-run average packet rate the aggregate is
	// calibrated to produce.
	TargetPPS float64

	// Envelope modulates the instantaneous rate around TargetPPS.
	Envelope EnvelopeConfig

	// Mix gives the relative packet-volume weight of each source model.
	// Weights need not sum to one; they are normalized. A zero Mix uses
	// DefaultMix.
	Mix Mix
}

// Mix is the relative share of packets contributed by each source model.
type Mix struct {
	Telnet      float64 // interactive echo: 40-41 B characters, some line bursts
	Ack         float64 // pure 40 B acknowledgement trains for inbound bulk data
	Bulk        float64 // outbound bulk transfer: 552 B (sometimes larger) trains
	Transaction float64 // DNS/transaction-style UDP request/response
	Mail        float64 // SMTP/NNTP-style medium packets
	ICMP        float64 // pings and errors: tiny packets
}

// DefaultMix is the calibrated SDSC-like application mix.
func DefaultMix() Mix {
	return Mix{
		Telnet:      0.18,
		Ack:         0.30,
		Bulk:        0.315,
		Transaction: 0.095,
		Mail:        0.095,
		ICMP:        0.015,
	}
}

func (m Mix) total() float64 {
	return m.Telnet + m.Ack + m.Bulk + m.Transaction + m.Mail + m.ICMP
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	if c.Duration <= 0 {
		return errors.New("traffgen: duration must be positive")
	}
	if !finiteParams(c.TargetPPS, c.Envelope, c.Mix) {
		return errors.New("traffgen: rate, envelope and mix weights must be finite")
	}
	if c.TargetPPS <= 0 {
		return errors.New("traffgen: target packet rate must be positive")
	}
	if c.ClockUS < 0 {
		return errors.New("traffgen: clock granularity must be non-negative")
	}
	if c.Mix != (Mix{}) && c.Mix.total() <= 0 {
		return errors.New("traffgen: mix weights must have positive sum")
	}
	return checkPacketCount(c.TargetPPS * c.Duration.Seconds())
}

// finiteParams rejects NaN and ±Inf, which pass the comparisons above
// and become a makeslice panic or a skewed trace. A finite mix total
// means finite weights whose sum does not overflow.
func finiteParams(pps float64, env EnvelopeConfig, mix Mix) bool {
	for _, x := range []float64{pps, env.Sigma, env.Rho, env.TrendPerHour, mix.total()} {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// checkPacketCount rejects a trace of over 2³² expected packets (~100 GB).
func checkPacketCount(expected float64) error {
	if expected > 1<<32 {
		return fmt.Errorf("traffgen: expected packet count %.4g exceeds 2^32", expected)
	}
	return nil
}

// mixModels is the number of source models a Mix weights.
const mixModels = 6

// emissionBound is the most packets the baseline or one phase can
// stage for a target of totalPackets split over at most mixModels
// model runs: a run stops at the first count >= 1.02·target, so at no
// more than ⌊1.02·target⌋+1, and a sum of floors is at most the floor
// of the sum.
func emissionBound(totalPackets float64) int {
	return int(math.Ceil(1.02*totalPackets)) + mixModels
}

// Generate synthesizes the trace described by cfg: the scenario with
// no overlay phases.
func Generate(cfg Config) (*trace.Trace, error) {
	return GenerateScenario(Scenario{Base: cfg})
}

// run is one model run of a scenario's plan: about target packets of
// model over [0, durUS) under env, shifted by shiftUS onto the trace
// clock, drawn from rng into seg — a segment of the one staging buffer
// with room for segmentCap(target) packets, the most a run emits.
// Runs share only env and addrs, which are read-only. A plan's runs
// stage concurrently and each writes its flow RNG every packet, so they
// are padded apart.
type run struct {
	model          sourceModel
	target         float64
	durUS, shiftUS int64
	env            *envelope
	addrs          *addressPool
	rng            dist.RNG
	flowRNG        dist.RNG // the flow being emitted draws from it (emit)
	seg            []trace.Packet
	_              [64]byte
}

// segmentCap is the room a run of target packets needs: it stops at the
// first count >= 1.02·target, so at no more than ⌊1.02·target⌋+1.
func segmentCap(target float64) int {
	return int(target*1.02) + 1
}

// bounds is the run's stop rule: flows are drawn while fewer than stop
// packets have been emitted, and the flow that brings the count to
// limit is cut there. They are ⌈target⌉ and ⌈1.02·target⌉, the least
// counts that reach target and 1.02·target.
func (r *run) bounds() (stop, limit int) {
	return int(math.Ceil(r.target)), int(math.Ceil(r.target * 1.02))
}

// stage emits the run into its segment, one flow at a time. The run's
// own RNG draws each flow's header — its start from the rate envelope,
// so offered load is non-stationary, and its child RNG's seed — and the
// child draws everything else.
//
// The child is the run's flow RNG reseeded in place (reseeding with
// dist.RNG.SplitSeed draws the identical stream Split would have
// returned, without allocating), and each model reuses one scratch flow
// — a flow is fully drained before the next newFlow — so the loop
// allocates nothing per flow.
//
//nslint:hotpath
func (r *run) stage() {
	stop, limit := r.bounds()
	seg := r.seg[:cap(r.seg)]
	n := 0
	for i := 0; n < stop; i++ {
		start := r.env.sampleStart(&r.rng, r.durUS)
		n = r.emit(seg, n, limit, i, start, r.rng.SplitSeed())
	}
	r.seg = seg[:n]
}

// emit writes the packets of the run's flow i — starting at start and
// drawn from the flow RNG reseeded with seed — that fall before durUS,
// on the trace clock, into dst from n on, until the flow ends or n
// reaches limit, and returns the new n.
func (r *run) emit(dst []trace.Packet, n, limit, i int, start int64, seed uint64) int {
	flowRNG := &r.flowRNG
	flowRNG.Reseed(seed)
	f := r.model.newFlow(i, flowRNG, r.addrs)
	for t := start; ; {
		gapUS, pkt, more := f.next(flowRNG)
		t += gapUS
		if t >= r.durUS {
			return n
		}
		pkt.Time = t + r.shiftUS
		dst[n] = pkt
		n++
		if !more || n >= limit {
			return n
		}
	}
}

// blockFlows is the flows in a block of a run staged on several
// workers (stageBlocks): ≈ 500 packets of the SYN flood.
const blockFlows = 256

// flowHead is what a run's own RNG draws for one flow: its start and its
// child RNG's seed. The flow's packets depend on nothing else but its
// index in the run and read-only state.
type flowHead struct {
	start int64
	seed  uint64
}

// blocks is a run staged in blocks on several workers (stageBlocks).
type blocks struct {
	r           *run
	seg         []trace.Packet // the run's segment at full length
	stop, limit int
	// free holds the scratches no block is in; it has room for all.
	free chan *blockScratch

	draw    sync.Mutex // guards r.rng and drawn
	drawn   int
	stopped atomic.Bool // a commit has met the stop rule

	mu sync.Mutex // guards the fields below
	// staged holds the blocks handed in and awaiting commit, at block
	// mod len: each holds a scratch until committed, so no two are len
	// apart.
	staged []*blockScratch
	next   int // the block to commit next
	n      int // packets committed
}

// blockScratch holds one block: a copy of the run with a model and flow
// RNG of its own, the block's headers, and its n staged packets, copied
// to off when committed. Scratches are padded apart, as every packet
// writes to the model's scratch flow and the flow RNG.
type blockScratch struct {
	_      [64]byte
	run    run
	heads  []flowHead
	pkts   []trace.Packet
	block  int
	n, off int
	_      [64]byte
}

// stageBlocks stages r on workers goroutines in blocks of flows flows,
// into the packets stage would emit. Block k is the run's flows
// k·flows … (k+1)·flows−1. A worker takes a free scratch, draws the
// next block's headers from the run's RNG — one worker at a time, so
// in block order — stages their bodies into the scratch, and hands the
// block in. Blocks are committed in block order, each by the worker
// that hands in the block it waits on: a block that ends before stop is
// copied into the segment; the block that reaches stop, and one that
// filled its scratch, are replayed there from their headers by stage's
// rule (emit up to limit while below stop), so a block drawn past the
// stop replays to nothing. There are two scratches a worker, so workers
// stage on past a block that is slow to come in. A scratch holds 2.25
// packets a flow (the SYN flood's flows are 1–3 packets, 2 on average,
// so a block of 256 overfills it only ≈ 5σ out) and never grows.
func stageBlocks(r *run, workers, flows int) {
	b := &blocks{r: r, seg: r.seg[:cap(r.seg)],
		free: make(chan *blockScratch, 2*workers), staged: make([]*blockScratch, 2*workers)}
	b.stop, b.limit = r.bounds()
	for range b.staged {
		sc := &blockScratch{run: *r, heads: make([]flowHead, flows), pkts: make([]trace.Packet, min(9*flows/4, b.limit))}
		sc.run.model = r.model.fork()
		b.free <- sc
	}
	fanout.Run(workers, func(int) {
		committed := make([]*blockScratch, 0, len(b.staged))
		for sc := <-b.free; b.drawInto(sc); sc = <-b.free {
			sc.n = sc.stageBlock()
			committed = b.handIn(sc, committed[:0])
			for _, c := range committed {
				if c.off >= 0 {
					copy(b.seg[c.off:], c.pkts[:c.n])
				}
				b.free <- c
			}
		}
	})
	r.seg = b.seg[:b.n]
}

// drawInto draws the next block's headers into sc; false, with sc
// freed, once the run has stopped.
func (b *blocks) drawInto(sc *blockScratch) bool {
	b.draw.Lock()
	if b.stopped.Load() {
		b.draw.Unlock()
		b.free <- sc
		return false
	}
	for j := range sc.heads {
		sc.heads[j] = flowHead{b.r.env.sampleStart(&b.r.rng, b.r.durUS), b.r.rng.SplitSeed()}
	}
	sc.block = b.drawn
	b.drawn++
	b.draw.Unlock()
	return true
}

// handIn files sc's staged block and commits every filed block that is
// next in block order, appending each to committed with the offset to
// copy it to: −1 for a block replayed in place.
func (b *blocks) handIn(sc *blockScratch, committed []*blockScratch) []*blockScratch {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.staged[sc.block%len(b.staged)] = sc
	for {
		c := b.staged[b.next%len(b.staged)]
		if c == nil {
			return committed
		}
		b.staged[b.next%len(b.staged)] = nil
		b.next++
		committed = append(committed, c)
		if c.n < len(c.pkts) && b.n+c.n < b.stop {
			c.off = b.n
			b.n += c.n
			continue
		}
		// A full scratch may have cut the block short. Replayed by
		// stage's rule, such a block goes on as the run would, the block
		// that reaches stop ends the run, and one drawn past it, with
		// b.n >= stop, emits nothing.
		c.off = -1
		first := c.block * len(c.heads)
		for j := 0; j < len(c.heads) && b.n < b.stop; j++ {
			b.n = c.run.emit(b.seg, b.n, b.limit, first+j, c.heads[j].start, c.heads[j].seed)
		}
		if b.n >= b.stop {
			b.stopped.Store(true)
		}
	}
}

// stageBlock stages the bodies of the block's flows, headed in
// sc.heads, into sc.pkts until it is full, and returns the packets
// staged: all the block's, if fewer than len(sc.pkts).
//
//nslint:hotpath
func (sc *blockScratch) stageBlock() int {
	first := sc.block * len(sc.heads)
	n := 0
	for j := 0; j < len(sc.heads) && n < len(sc.pkts); j++ {
		n = sc.run.emit(sc.pkts, n, len(sc.pkts), first+j, sc.heads[j].start, sc.heads[j].seed)
	}
	return n
}

// stager plans a scenario's model runs in seed order, splitting each
// run's child of root as it is planned. With a nil plan it stages each
// run at once, in spot, packed after the last; otherwise it reserves
// the run's segment and appends the run to plan for stageParallel. The
// stager holds root and spot, whose flow RNG every packet draws from,
// so a serial scenario's RNGs take no heap of their own.
type stager struct {
	pkts  []trace.Packet
	root  dist.RNG
	addrs *addressPool
	plan  []run
	spot  run
}

// add plans one run.
func (st *stager) add(m sourceModel, target float64, durUS, shiftUS int64, env *envelope) {
	off := len(st.pkts)
	end := off + segmentCap(target)
	r := run{model: m, target: target, durUS: durUS, shiftUS: shiftUS, env: env, addrs: st.addrs, seg: st.pkts[off:off:end]}
	st.root.SplitInto(&r.rng)
	if st.plan == nil {
		st.spot = r
		st.spot.stage()
		end = off + len(st.spot.seg)
	} else {
		st.plan = append(st.plan, r)
	}
	st.pkts = st.pkts[:end]
}

// mixSet is the models of one application mix, one allocation. The
// models carry per-flow scratch state, so each run gets its own, padded
// apart as the runs may stage concurrently.
type mixSet struct {
	telnet      pad[telnetModel]
	ack         pad[ackModel]
	bulk        pad[bulkModel]
	transaction pad[transactionModel]
	mail        pad[mailModel]
	icmp        pad[icmpModel]
}

// addMix plans the application-mix aggregate: one run per weighted
// model, in declaration order. A scenario's baseline and its Mix phases
// share it.
func (st *stager) addMix(mix Mix, totalPackets float64, durUS, shiftUS int64, env *envelope) {
	norm := mix.total()
	set := &mixSet{}
	models := [mixModels]struct {
		weight float64
		model  sourceModel
	}{
		{mix.Telnet, &set.telnet.m},
		{mix.Ack, &set.ack.m},
		{mix.Bulk, &set.bulk.m},
		{mix.Transaction, &set.transaction.m},
		{mix.Mail, &set.mail.m},
		{mix.ICMP, &set.icmp.m},
	}
	for _, m := range models {
		if m.weight > 0 {
			st.add(m.model, totalPackets*m.weight/norm, durUS, shiftUS, env)
		}
	}
}

// stageParallel stages plan, whose segments tile pkts, on workers
// goroutines and returns the staged packets closed up (closeUp). A run
// that dwarfs the rest, staged by one worker, would leave the others
// idle, so such a run goes first, in flow blocks on every worker
// (stageBlocks); workers then claim the other runs whole, the longest
// left first. A run writes only its own segment.
func stageParallel(pkts []trace.Packet, plan []run, workers int) []trace.Packet {
	order := make([]int, len(plan))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(plan[b].target, plan[a].target) })
	if len(order) > 0 && blockStaged(cap(plan[order[0]].seg), len(pkts), workers) {
		stageBlocks(&plan[order[0]], workers, blockFlows)
		order = order[1:]
	}
	var next atomic.Int64
	fanout.Run(workers, func(int) {
		for i := next.Add(1) - 1; i < int64(len(order)); i = next.Add(1) - 1 {
			plan[order[i]].stage()
		}
	})
	return closeUp(pkts, plan)
}

// blockStaged reports whether stageParallel stages a run with a segment
// of segCap packets, in a buffer of capacity, in flow blocks: a run of
// over two thirds of the buffer, on more than one worker. Of the
// presets, only ddos's SYN flood (75 %) is one, at any worker count; the
// next largest runs, flashcrowd's crowd (57 %) and elephantmice's mix
// (50 %), have long flows that would overfill the block scratch.
func blockStaged(segCap, capacity, workers int) bool {
	return workers > 1 && 3*segCap > 2*capacity
}

// closeUp fills the holes the runs left below n, the number of packets
// staged, with the packets staged at or past n, last first, and returns
// pkts[:n]. Order is immaterial — the sort orders the staged multiset —
// so it moves only as many packets as there are holes below n.
func closeUp(pkts []trace.Packet, plan []run) []trace.Packet {
	n := 0
	for i := range plan {
		n += len(plan[i].seg)
	}
	// The packets left to move are [max(lo, n), hi) of plan[j], whose
	// segment starts at lo; j walks the plan back to front.
	j, lo, hi := len(plan), len(pkts), len(pkts)
	off := 0
	for i := range plan {
		seg := plan[i].seg
		for at := off + len(seg); at < min(off+cap(seg), n); at++ {
			for hi <= max(lo, n) {
				j--
				lo -= cap(plan[j].seg)
				hi = lo + len(plan[j].seg)
			}
			hi--
			pkts[at] = pkts[hi]
		}
		off += cap(seg)
	}
	return pkts[:n]
}

// finishTrace turns the staged packets, whose Time is still the
// unquantized emission µs, into the trace: sort in place on workers
// goroutines, each quantizing what it sorted to the capture clock, and
// clip the slice so no caller can append into the staging slack. The
// sort is under a total order (comparePackets), so packets with equal
// µs land in an order their own fields decide: the trace is a function
// of the staged multiset alone — of the seed, not of the emission
// order, the worker count or the algorithm (TestTraceDigests).
func finishTrace(pkts []trace.Packet, cfg Config, workers int) *trace.Trace {
	sortPackets(pkts, cfg.ClockUS, workers)
	return &trace.Trace{Start: cfg.Start, ClockUS: cfg.ClockUS, Packets: pkts[:len(pkts):len(pkts)]}
}
