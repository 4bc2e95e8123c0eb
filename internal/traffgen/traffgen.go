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
// with room for ⌊1.02·target⌋+1 packets, the most appendFlows emits.
// Runs share only env and addrs, which are read-only.
type run struct {
	model          sourceModel
	target         float64
	durUS, shiftUS int64
	env            *envelope
	addrs          *addressPool
	rng            dist.RNG
	seg            []trace.Packet
}

// stage emits the run into its segment and shifts it onto the trace clock.
func (r *run) stage() {
	r.seg = appendFlows(r.seg, r.model, r.target, r.durUS, r.env, r.addrs, &r.rng)
	if r.shiftUS != 0 {
		for i := range r.seg {
			r.seg[i].Time += r.shiftUS
		}
	}
}

// stager plans a scenario's model runs in seed order, splitting each
// run's child of root as it is planned. With a nil plan it stages each
// run on the spot, packed after the last; otherwise it reserves the
// run's segment and appends the run to plan for stageParallel.
type stager struct {
	pkts  []trace.Packet
	root  *dist.RNG
	addrs *addressPool
	plan  []run
}

// add plans one run.
func (st *stager) add(m sourceModel, target float64, durUS, shiftUS int64, env *envelope) {
	off := len(st.pkts)
	end := off + int(target*1.02) + 1
	r := run{model: m, target: target, durUS: durUS, shiftUS: shiftUS, env: env, addrs: st.addrs, seg: st.pkts[off:off:end]}
	st.root.SplitInto(&r.rng)
	if st.plan == nil {
		r.stage()
		end = off + len(r.seg)
	} else {
		st.plan = append(st.plan, r)
	}
	st.pkts = st.pkts[:end]
}

// addMix plans the application-mix aggregate: one run per weighted
// model, in declaration order. A scenario's baseline and its Mix phases
// share it. The models carry per-flow scratch state, so each run gets
// its own.
func (st *stager) addMix(mix Mix, totalPackets float64, durUS, shiftUS int64, env *envelope) {
	norm := mix.total()
	models := [mixModels]struct {
		weight float64
		model  sourceModel
	}{
		{mix.Telnet, &telnetModel{}},
		{mix.Ack, &ackModel{}},
		{mix.Bulk, &bulkModel{}},
		{mix.Transaction, &transactionModel{}},
		{mix.Mail, &mailModel{}},
		{mix.ICMP, &icmpModel{}},
	}
	for _, m := range models {
		if m.weight > 0 {
			st.add(m.model, totalPackets*m.weight/norm, durUS, shiftUS, env)
		}
	}
}

// stageParallel stages plan, whose segments tile pkts, on workers
// goroutines, each claiming the longest run left, and returns the staged
// packets closed up (closeUp). A run writes only its own segment.
func stageParallel(pkts []trace.Packet, plan []run, workers int) []trace.Packet {
	order := make([]int, len(plan))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(plan[b].target, plan[a].target) })
	var next atomic.Int64
	fanOut(workers, func(int) {
		for i := next.Add(1) - 1; i < int64(len(order)); i = next.Add(1) - 1 {
			plan[order[i]].stage()
		}
	})
	return closeUp(pkts, plan)
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

// fanOut calls work(0) … work(workers−1) concurrently — work(0) on the
// calling goroutine — and returns when every call has.
func fanOut(workers int, work func(w int)) {
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go doWork(&wg, work, w)
	}
	work(0)
	wg.Wait()
}

// doWork is one of fanOut's goroutines.
func doWork(wg *sync.WaitGroup, work func(w int), w int) {
	defer wg.Done()
	work(w)
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

// appendFlows spawns flows of one model until the model has contributed
// approximately targetPackets packets within [0, durUS). Flow start times
// are drawn from the rate envelope so offered load is non-stationary.
//
// The per-flow RNG is a stack-scratch child reseeded in place
// (dist.RNG.SplitInto draws the identical stream Split would have
// returned, without allocating), and each model reuses one scratch flow
// struct — a flow is fully drained before the next newFlow, so the
// hot loop allocates nothing per flow.
//
//nslint:hotpath
func appendFlows(pkts []trace.Packet, m sourceModel, targetPackets float64, durUS int64,
	env *envelope, addrs *addressPool, r *dist.RNG) []trace.Packet {

	var flowRNG dist.RNG
	var emitted float64
	for emitted < targetPackets {
		start := env.sampleStart(r, durUS)
		r.SplitInto(&flowRNG)
		flow := m.newFlow(&flowRNG, addrs)
		t := start
		for {
			gapUS, pkt, more := flow.next(&flowRNG)
			t += gapUS
			if t >= durUS {
				break
			}
			pkt.Time = t
			//nslint:allow hotalloc the run's segment holds ⌊1.02·target⌋+1 packets and this run ends at the first emitted >= 1.02·target, so growth is unreachable
			pkts = append(pkts, pkt)
			emitted++
			if !more || emitted >= targetPackets*1.02 {
				break
			}
		}
	}
	return pkts
}
