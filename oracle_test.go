package netsample_test

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"math"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"netsample/internal/arts"
	"netsample/internal/bins"
	"netsample/internal/collect"
	"netsample/internal/core"
	"netsample/internal/dist"
	"netsample/internal/faultnet"
	"netsample/internal/flows"
	"netsample/internal/metrics"
	"netsample/internal/nnstat"
	"netsample/internal/online"
	"netsample/internal/pipeline"
	"netsample/internal/store"
	"netsample/internal/trace"
	"netsample/internal/traffgen"
)

// The serial oracle: what a node running internal/pipeline must
// publish for a trace and a configuration, computed the obvious way —
// one plain loop per stage over the whole trace, no shards, channels,
// barriers or sketches. FuzzOracleChain holds the sharded pipeline, the
// snapshot wire, the store and the collection plane to it.

// oracleNode names the node in every wire snapshot of the chain.
const oracleNode = "oracle"

// oracleRun is the oracle's answer: the wire snapshots, the k each
// window ran at (0 without adaptive control) and the control steps.
type oracleRun struct {
	snaps     []*collect.Snapshot
	ks        []int
	decisions []pipeline.AdaptiveDecision
	// exact[w] holds window w's true selected-packet count per top-K key.
	exact []map[string]uint64
	// shardKeys is the most distinct keys one shard saw in one window:
	// a sketch at least this large counts exactly.
	shardKeys int
}

// topKey is the shard's heavy-hitter key: addresses, little-endian
// ports, protocol.
func topKey(p trace.Packet) string {
	k := append(append(p.Src[:4:4], p.Dst[:]...),
		byte(p.SrcPort), byte(p.SrcPort>>8), byte(p.DstPort), byte(p.DstPort>>8), byte(p.Protocol))
	return string(k)
}

// rankTop orders entries by count descending, then key, and keeps n.
func rankTop(es []nnstat.Entry, n int) []nnstat.Entry {
	slices.SortFunc(es, func(a, b nnstat.Entry) int {
		if c := cmp.Compare(b.Count, a.Count); c != 0 {
			return c
		}
		return cmp.Compare(a.Key, b.Key)
	})
	return es[:min(n, len(es))]
}

// runOracle computes what a node configured as cfg publishes over tr.
// sel is the batch selection for a fixed method; nil under
// cfg.Adaptive, whose systematic counter runs here window by window.
func runOracle(tr *trace.Trace, cfg pipeline.Config, sel []int) (*oracleRun, error) {
	pkts := tr.Packets
	sizeScheme, iatScheme := bins.PacketSize(), bins.Interarrival()
	// Windows: the first opens at the first packet; a packet at or past
	// the next boundary cuts, once per boundary it passes; the last
	// closes one µs after the last packet.
	type span struct {
		lo, hi     int
		start, end int64
	}
	var wins []span
	lo, start := 0, pkts[0].Time
	for i, p := range pkts {
		for cfg.WindowUS > 0 && p.Time >= start+cfg.WindowUS {
			wins = append(wins, span{lo, i, start, start + cfg.WindowUS})
			lo, start = i, start+cfg.WindowUS
		}
	}
	wins = append(wins, span{lo, len(pkts), start, pkts[len(pkts)-1].Time + 1})

	selected := make([]bool, len(pkts))
	for _, i := range sel {
		selected[i] = true
	}
	run := &oracleRun{}
	k, counter := 0, 0
	if cfg.Adaptive != nil {
		k = cfg.Adaptive.StartK
	}
	for w, win := range wins {
		// Selection: the adaptive schedule selects a window's first packet
		// whenever the window's k differs from the last one's.
		if cfg.Adaptive != nil {
			for i := win.lo; i < win.hi; i++ {
				selected[i] = counter == 0
				counter = (counter + 1) % k
			}
		}
		s := &collect.Snapshot{
			Node: oracleNode, Seq: uint64(w + 1),
			WindowStartUS: win.start, WindowEndUS: win.end,
			Final: w == len(wins)-1, Shards: uint32(cfg.Shards),
			Offered: uint64(win.hi - win.lo), Processed: uint64(win.hi - win.lo),
			SizeCounts: make([]uint64, sizeScheme.NumBins()),
			IatCounts:  make([]uint64, iatScheme.NumBins()),
		}
		// Bins, flows and exact per-key counts over the selected packets.
		type record struct{ last, pkts, bytes int64 }
		var recs []record
		open := make(map[flows.Key]int)
		counts := make(map[string]uint64)
		for i := win.lo; i < win.hi; i++ {
			if !selected[i] {
				continue
			}
			p := pkts[i]
			s.Selected++
			s.SizeCounts[sizeScheme.Index(float64(p.Size))]++
			if i > 0 {
				s.IatCounts[iatScheme.Index(float64(p.Time-pkts[i-1].Time))]++
			}
			key := flows.KeyOf(p)
			if r, ok := open[key]; ok && p.Time-recs[r].last <= cfg.FlowTimeoutUS {
				recs[r] = record{p.Time, recs[r].pkts + 1, recs[r].bytes + int64(p.Size)}
			} else {
				open[key] = len(recs)
				recs = append(recs, record{p.Time, 1, int64(p.Size)})
			}
			counts[topKey(p)]++
		}
		for _, r := range recs {
			s.FlowCounts.Flows++
			s.FlowCounts.Packets += uint64(r.pkts)
			s.FlowCounts.Bytes += uint64(r.bytes)
			if r.pkts == 1 {
				s.FlowCounts.Singletons++
			}
		}
		s.ActiveFlows = uint64(len(open))
		perShard := make(map[uint32]int)
		for key := range open {
			perShard[key.Hash()%uint32(cfg.Shards)]++
		}
		for _, n := range perShard {
			run.shardKeys = max(run.shardKeys, n)
		}
		for key, c := range counts {
			s.TopK = append(s.TopK, nnstat.Entry{Key: key, Count: c})
		}
		s.TopK = rankTop(s.TopK, cfg.TopKReport)
		// Reports: the selected counts against the window's parent, every
		// packet in it, tallied here on its own.
		parentSize := make([]uint64, sizeScheme.NumBins())
		parentIat := make([]uint64, iatScheme.NumBins())
		for i := win.lo; i < win.hi; i++ {
			parentSize[sizeScheme.Index(float64(pkts[i].Size))]++
			if i > 0 {
				parentIat[iatScheme.Index(float64(pkts[i].Time-pkts[i-1].Time))]++
			}
		}
		s.SizeReport = scoreWindow(s.SizeCounts, parentSize)
		s.IatReport = scoreWindow(s.IatCounts, parentIat)
		run.snaps = append(run.snaps, s)
		run.exact = append(run.exact, counts)
		run.ks = append(run.ks, k)
		// Control: Decide is the law; the final window decides nothing.
		if cfg.Adaptive != nil && !s.Final {
			d := cfg.Adaptive.Decide(k, s)
			run.decisions = append(run.decisions, d)
			if d.K != k {
				k, counter = d.K, 0
			}
		}
	}
	return run, nil
}

// scoreWindow is core.ScoreParent, or nil for an unscored window: an
// empty histogram, or a parent that hits fewer than two bins.
func scoreWindow(sample, parent []uint64) *metrics.Report {
	var n uint64
	hit := 0
	for b, c := range parent {
		n += sample[b]
		if c > 0 {
			hit++
		}
	}
	if n == 0 || hit < 2 {
		return nil
	}
	rep, err := core.ScoreParent(sample, parent)
	if err != nil {
		panic(err)
	}
	return &rep
}

// nocHop is the collection plane between the node and the NOC store,
// run the way nsd serves and noccollect polls: an Agent exports the
// pipeline through a fault-injecting listener, and a Collector polls
// each window once or twice, drops repeats by Seq and appends the rest
// to a second store. The fault budget is at most the collector's retry
// count, so a poll fails only on a fault no retry can mend.
type nocHop struct {
	addr    string
	col     *collect.Collector
	inj     *faultnet.Injector
	polls   *dist.RNG
	budget  int
	to      *store.Writer
	lastSeq uint64
	got     []*collect.Snapshot
	err     error // the first failure; OnSnapshot cannot stop the test
}

// startHop serves p on a loopback listener and opens the NOC store in
// dir. A nonzero fault seed faults nearly every connection, cut inside
// a frame header or just past it, until a budget of eight faults per
// window is spent.
func startHop(t *testing.T, c chainCase, p *pipeline.Pipeline, windows int, dir string, opts store.Options) *nocHop {
	noop := func(time.Duration) {}
	h := &nocHop{budget: 8 * (windows + 1), polls: dist.NewRNG(uint64(c.Fault))}
	cfg := faultnet.Config{FaultProb: 0.95, Budget: h.budget, MaxOffset: 16}
	if c.Fault == 0 {
		cfg = faultnet.Config{}
	}
	h.inj = faultnet.NewInjector(uint64(c.Fault), cfg)
	h.inj.Sleep = noop
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	agent := collect.NewAgent(oracleNode, arts.T3)
	agent.Snapshots = pipeline.NewExporter(p, oracleNode)
	h.addr = agent.ServeListener(h.inj.Listener(ln)).String()
	t.Cleanup(func() { agent.Close() })
	h.col = collect.NewCollector()
	h.col.Retries, h.col.Backoff = h.budget, time.Millisecond
	h.col.Jitter, h.col.Sleep = dist.NewRNG(uint64(c.Fault)).Split(), noop
	if h.to, err = store.Open(dir, opts); err != nil {
		t.Fatal(err)
	}
	return h
}

// poll is one NOC poll. A fault on a frame's version byte draws a typed
// answer that no retry mends, so the NOC polls again; each such fault
// spends budget.
func (h *nocHop) poll() (s *collect.Snapshot, err error) {
	for range h.budget + 1 {
		s, err = h.col.PollSnapshot(h.addr)
		if err == nil || !strings.Contains(err.Error(), "unsupported wire version") {
			break
		}
	}
	return s, err
}

// window polls the window the node now serves.
func (h *nocHop) window() {
	for n := 1 + h.polls.IntN(2); n > 0 && h.err == nil; n-- {
		s, err := h.poll()
		switch {
		case err != nil:
			h.err = err
		case s.Seq > h.lastSeq:
			h.lastSeq = s.Seq
			h.got = append(h.got, s)
			h.err = h.to.AppendSnapshot(s)
		}
	}
}

// chainCase is one FuzzOracleChain input decoded: every knob of a node
// run. Each takes two input bytes, folded into lo + v % span.
type chainCase struct {
	Scenario, Method, K, Shards, Batch, Depth, WindowS, TimeoutMS int
	Capacity, Report, Source, Segment, Seed                       int
	MinK, MaxK, TargetPct                                         int // adaptive; K is StartK
	Fault                                                         int // the socket's fault seed; 0 is clean
}

// Scenario, Method and Source values.
const (
	scHour = iota // traffgen.SmallTrace, two minutes
	scDDoS
	scPortscan
	scFlashcrowd
)

var (
	chainScenarios = []string{"", "ddos", "portscan", "flashcrowd"}
	chainMethods   = []string{"systematic", "stratified", "systematic-timer", "stratified-timer", "adaptive"}
)

const (
	mSystematic = iota
	mStratified
	mSystematicTimer
	mStratifiedTimer
	mAdaptive
)

const (
	srcReplayer  = iota // the in-memory trace's own record windows
	srcMapReader        // a trace file, memory-mapped
	srcTorn             // a mapped region whose header claims one record too many
	srcPerPacket        // a Source with only Next
)

type knob struct {
	p        *int
	lo, span int
}

func (c *chainCase) knobs() []knob {
	return []knob{
		{&c.Scenario, 0, len(chainScenarios)}, {&c.Method, 0, len(chainMethods)},
		{&c.K, 1, 256}, {&c.Shards, 1, 300}, {&c.Batch, 1, 256}, {&c.Depth, 1, 8},
		{&c.WindowS, 0, 61}, {&c.TimeoutMS, 1, 60_000}, {&c.Capacity, 1, 1024},
		{&c.Report, 1, 64}, {&c.Source, 0, 4}, {&c.Segment, 1, 64},
		{&c.Seed, 0, 1 << 16}, {&c.MinK, 1, 64}, {&c.MaxK, 1, 4096}, {&c.TargetPct, 1, 100},
		{&c.Fault, 0, 1 << 16},
	}
}

func decodeChain(data []byte) chainCase {
	var c chainCase
	for i, kn := range c.knobs() {
		var v uint16
		if len(data) >= 2*i+2 {
			v = binary.LittleEndian.Uint16(data[2*i:])
		}
		*kn.p = kn.lo + int(v)%kn.span
	}
	if c.Method == mAdaptive {
		// The control loop lives on the window cut.
		c.WindowS = max(c.WindowS, 1)
		c.MaxK = max(c.MaxK, c.MinK)
		c.K = min(max(c.K, c.MinK), c.MaxK)
	}
	return c
}

// bytes encodes a seed row; a zero field takes the node's default.
func (c chainCase) bytes() []byte {
	for _, d := range []struct {
		p *int
		v int
	}{
		{&c.Batch, pipeline.DefaultBatchSize}, {&c.Depth, pipeline.DefaultQueueDepth},
		{&c.TimeoutMS, 15_000}, {&c.Capacity, pipeline.DefaultTopKCapacity},
		{&c.Report, pipeline.DefaultTopKReport}, {&c.Segment, 64}, {&c.Seed, 1993},
	} {
		if *d.p == 0 {
			*d.p = d.v
		}
	}
	var out []byte
	for _, kn := range c.knobs() {
		out = binary.LittleEndian.AppendUint16(out, uint16(max(*kn.p-kn.lo, 0)))
	}
	return out
}

// chainTraces holds each scenario's trace once per process; a fuzz
// process runs its cases one at a time.
var chainTraces = map[int]*trace.Trace{}

func chainTrace(t *testing.T, sc int) *trace.Trace {
	if tr := chainTraces[sc]; tr != nil {
		return tr
	}
	var (
		tr  *trace.Trace
		err error
	)
	if sc == scHour {
		tr, err = traffgen.Generate(traffgen.SmallTrace(777))
	} else {
		var s traffgen.Scenario
		if s, err = traffgen.PresetScenario(chainScenarios[sc], 99, time.Minute); err == nil {
			tr, err = traffgen.GenerateScenario(s)
		}
	}
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	chainTraces[sc] = tr
	return tr
}

// perPacket hides a replay's record windows: Run must adapt it.
type perPacket struct{ r *trace.MapReader }

func (s perPacket) Next() (trace.Packet, error) { return s.r.Next() }

// chainSource builds the case's source form over tr and the error Run
// must return after draining it.
func chainSource(t *testing.T, tr *trace.Trace, form int) (pipeline.Source, error) {
	switch form {
	case srcReplayer:
		return tr.Replay(), nil
	case srcPerPacket:
		return perPacket{tr.Replay()}, nil
	}
	var buf bytes.Buffer
	if err := trace.Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	if form == srcTorn {
		// One record more declared than held: every real record comes
		// through, then the error.
		data := buf.Bytes()
		binary.LittleEndian.PutUint64(data[24:], binary.LittleEndian.Uint64(data[24:])+1)
		mr, err := trace.NewMapReaderBytes(data)
		if err != nil {
			t.Fatal(err)
		}
		return mr, trace.ErrFormat
	}
	path := filepath.Join(t.TempDir(), "t.nstr")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	mr, err := trace.OpenMap(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mr.Close() })
	return mr, nil
}

func encode(t *testing.T, s *collect.Snapshot) []byte {
	b, err := collect.EncodeSnapshot(s)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	return b
}

// FuzzOracleChain runs a node the way nsd -store does — pipeline.New
// and Run, every window appended to a store.Writer — and the
// NOC beside it the way noccollect -store does, polling each window
// over a faulted socket (nocHop). It verifies the store, replays it
// cold, and holds every step to the serial oracle:
//
//   - every stored window is byte-for-byte the live export;
//   - every window processed all it offered and dropped nothing;
//   - every window is byte-for-byte the oracle's, with the oracle's k;
//     when a shard-window holds more keys than the sketch (the sketch
//     regime) its top-K is held to the Space-Saving contract instead,
//     Count ≥ true ≥ Count − MaxError;
//   - the decision log is the oracle's;
//   - a poll before Run gets the agent's "no snapshot available yet";
//   - every window is collected exactly once, byte-for-byte the stored
//     one, the collected windows offer every packet of the trace
//     (MergeWire), and the NOC store's files are the node store's.
//
// The rows below are the tier-1 run; together they fault over 1000
// connections. -fuzz explores and shrinks from them, and a crasher
// lands in testdata/fuzz/FuzzOracleChain.
func FuzzOracleChain(f *testing.F) {
	seeds := make(map[string]bool)
	for _, c := range []chainCase{
		// TestSnapshotMatchesBatch: one window, final snapshot equals batch;
		// the socket is clean.
		{Method: mStratifiedTimer, K: 50, Shards: 2},
		// TestWindowedCountsSumToBatch.
		{K: 50, WindowS: 10, Fault: 1},
		// TestMultiShardConservation: k = 1 reproduces the population.
		{K: 1, Shards: 4, Fault: 2},
		// TestParallelIngestDeterministic: tiny batches through depth-1 channels.
		{Method: mStratified, K: 50, Shards: 3, Batch: 3, Depth: 1, WindowS: 15, Fault: 3},
		// TestParallelIngestDeterministicRaw.
		{Method: mStratified, K: 50, Shards: 4, WindowS: 30, Capacity: 1024, Source: srcMapReader, Fault: 4},
		// Shard backpressure: small batches into depth-1 channels on four shards.
		{K: 50, Shards: 4, Batch: 16, Depth: 1, WindowS: 20, Fault: 5},
		// A source torn after its last record.
		{K: 7, Shards: 2, Source: srcTorn, Fault: 6},
		// TestSourceEquivalenceSnapshots.
		{Method: mStratified, K: 50, Shards: 4, WindowS: 30, Source: srcPerPacket, Seed: 11, Fault: 7},
		// TestManyShardsSourceEquivalence: more shards than a uint8 names.
		{K: 1, Shards: 300, Batch: 64, Depth: 2, WindowS: 30, Source: srcMapReader, Fault: 8},
		// TestAdaptiveDeterminismAcrossTopologies.
		{Scenario: scDDoS, Method: mAdaptive, K: 16, MinK: 4, MaxK: 256, TargetPct: 20,
			Shards: 8, WindowS: 5, Capacity: 1024, Segment: 3, Fault: 9},
		// TestAdaptiveKStaysBounded.
		{Scenario: scPortscan, Method: mAdaptive, K: 8, MinK: 2, MaxK: 32, TargetPct: 15,
			Shards: 2, WindowS: 3, Fault: 10},
		// TestPipelineStreamingMatchesBatchEndToEnd.
		{K: 64, Fault: 11},
		// Sketch regime, flows expiring inside a window, small segments.
		{Method: mSystematicTimer, K: 1, Shards: 2, WindowS: 15, TimeoutMS: 2,
			Capacity: 8, Report: 16, Segment: 2, Fault: 12},
		// Backpressure under load: one packet a batch into one depth-1 channel.
		{Scenario: scDDoS, K: 1, Batch: 1, Depth: 1, WindowS: 5, Source: srcPerPacket, Fault: 13},
		{Scenario: scFlashcrowd, Method: mStratifiedTimer, K: 20, Shards: 3, Batch: 64,
			WindowS: 5, Source: srcTorn, Segment: 1, Fault: 14},
		// One-second windows, ~120 of them: published windows cross a
		// collector slab chunk.
		{K: 50, Shards: 2, WindowS: 1, Fault: 15},
	} {
		seeds[string(c.bytes())] = true
		f.Add(c.bytes())
	}
	var rows, faulted int
	f.Fuzz(func(t *testing.T, data []byte) {
		n := checkChain(t, decodeChain(data))
		if seeds[string(data)] {
			rows, faulted = rows+1, faulted+n
		}
	})
	// A soak that stopped injecting would prove nothing.
	if rows == len(seeds) && faulted < 1000 {
		f.Errorf("the seed rows faulted %d connections, want at least 1000", faulted)
	}
}

func checkChain(t *testing.T, c chainCase) int {
	defer func() {
		if t.Failed() {
			t.Logf("case %+v", c)
		}
	}()
	tr := chainTrace(t, c.Scenario)
	method := chainMethods[c.Method]
	if c.Method == mStratified {
		// Batch stratified draws over the partial tail bucket too, which a
		// stream cannot close: compare on a multiple of k.
		tr = &trace.Trace{Start: tr.Start, ClockUS: tr.ClockUS, Packets: tr.Packets[:tr.Len()-tr.Len()%c.K]}
	}
	cfg := pipeline.Config{
		Shards: c.Shards, BatchSize: c.Batch, QueueDepth: c.Depth,
		WindowUS:      int64(c.WindowS) * 1_000_000,
		FlowTimeoutUS: int64(c.TimeoutMS) * 1_000,
		TopKCapacity:  c.Capacity, TopKReport: c.Report,
	}
	var sel []int
	if c.Method == mAdaptive {
		cfg.Adaptive = &pipeline.AdaptiveConfig{
			MinK: c.MinK, MaxK: c.MaxK, StartK: c.K, TargetPhi: float64(c.TargetPct) / 100,
		}
	} else {
		// nsd's sampler and its batch twin draw from the same stream.
		rng := dist.NewRNG(uint64(c.Seed)).Split()
		period, _ := core.PeriodForGranularity(tr, float64(c.K))
		cfg.NewSampler = func(int) (online.Sampler, error) { return online.New(method, c.K, period, rng) }
		batch, err := core.New(method, tr, c.K, 0)
		if err != nil {
			t.Fatal(err)
		}
		if sel, err = batch.Select(tr, dist.NewRNG(uint64(c.Seed)).Split()); err != nil {
			t.Fatal(err)
		}
	}
	want, err := runOracle(tr, cfg, sel)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}

	tmp := t.TempDir()
	dir, nocDir := filepath.Join(tmp, "store"), filepath.Join(tmp, "noc")
	opts := store.Options{SegmentRecords: c.Segment}
	sw, err := store.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	var (
		live []*pipeline.Snapshot
		hop  *nocHop
	)
	cfg.OnSnapshot = func(s *pipeline.Snapshot) {
		live = append(live, s)
		_ = sw.AppendSnapshot(s.Wire(oracleNode)) // the store counts a refusal; Close reports it
		hop.window()
	}
	p, err := pipeline.New(cfg)
	if err != nil {
		t.Fatalf("pipeline.New: %v", err)
	}
	hop = startHop(t, c, p, len(want.snaps), nocDir, opts)
	if _, err := hop.poll(); err == nil || !strings.Contains(err.Error(), "no snapshot available yet") {
		t.Fatalf("poll before Run = %v, want the agent's no-snapshot answer", err)
	}
	src, wantErr := chainSource(t, tr, c.Source)
	if err := p.Run(src); !errors.Is(err, wantErr) {
		t.Fatalf("Run = %v, want %v", err, wantErr)
	}
	if err := errors.Join(sw.Close(), store.Verify(dir)); err != nil {
		t.Fatalf("store: %v", err)
	}
	if err := errors.Join(hop.err, hop.to.Close()); err != nil {
		t.Fatalf("collection hop: %v", err)
	}
	r, err := store.OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	stored, err := r.Snapshots(math.MinInt64, math.MaxInt64)
	if err != nil {
		t.Fatal(err)
	}

	if len(live) != len(want.snaps) || len(stored) != len(live) || len(hop.got) != len(live) {
		t.Fatalf("%d windows published, %d stored, %d collected, oracle cut %d",
			len(live), len(stored), len(hop.got), len(want.snaps))
	}
	exact := c.Capacity >= want.shardKeys
	for i, s := range live {
		w, o := s.Wire(oracleNode), want.snaps[i]
		sb := encode(t, stored[i])
		if !bytes.Equal(sb, encode(t, w)) {
			t.Errorf("window %d: stored %+v\nlive %+v", i+1, stored[i], w)
		}
		if !bytes.Equal(encode(t, hop.got[i]), sb) {
			t.Errorf("window %d: collected %+v\nstored %+v", i+1, hop.got[i], stored[i])
		}
		if s.Processed != s.Offered || s.Dropped != 0 {
			t.Errorf("window %d: offered %d, processed %d, dropped %d", i+1, s.Offered, s.Processed, s.Dropped)
		}
		if s.K != want.ks[i] {
			t.Errorf("window %d ran at k=%d, oracle %d", i+1, s.K, want.ks[i])
		}
		if !exact {
			for _, e := range w.TopK {
				if n := want.exact[i][e.Key]; e.Count < n || e.Count-e.MaxError > n {
					t.Errorf("window %d: %x counted %d (+%d), true %d", i+1, e.Key, e.Count, e.MaxError, n)
				}
			}
			cw, co := *w, *o
			cw.TopK, co.TopK = nil, nil
			w, o = &cw, &co
		}
		if !bytes.Equal(encode(t, w), encode(t, o)) {
			t.Errorf("window %d:\npipeline %+v\noracle   %+v", i+1, w, o)
		}
	}
	if got := p.Decisions(); !reflect.DeepEqual(got, want.decisions) {
		t.Errorf("decisions %+v\noracle %+v", got, want.decisions)
	}
	m, err := pipeline.MergeWire(hop.got, c.Report)
	if err != nil {
		t.Fatal(err)
	}
	if m.Offered != uint64(tr.Len()) {
		t.Errorf("the collected windows offered %d packets, the trace holds %d", m.Offered, tr.Len())
	}
	if node, noc := storeFiles(t, dir), storeFiles(t, nocDir); !reflect.DeepEqual(node, noc) {
		t.Errorf("the NOC store's files differ from the node store's")
	}
	if c.Fault != 0 && hop.inj.Faulted() == 0 {
		t.Errorf("fault seed %d faulted none of %d connections", c.Fault, hop.inj.Wrapped())
	}
	return hop.inj.Faulted()
}

// storeFiles reads every file of a store directory, by name.
func storeFiles(t *testing.T, dir string) map[string][]byte {
	es, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string][]byte, len(es))
	for _, e := range es {
		if files[e.Name()], err = os.ReadFile(filepath.Join(dir, e.Name())); err != nil {
			t.Fatal(err)
		}
	}
	return files
}

// TestCensusScoresZero runs a census (systematic k = 1) through 5 s
// windows of every oracle scenario. Each window is scored against its
// own packets, which a census selects in full, so every window must
// carry both reports and score φ ≈ 0 on both targets: not exactly 0,
// because the expected counts are n·(c/N), which can miss c by an ulp.
func TestCensusScoresZero(t *testing.T) {
	for sc, name := range chainScenarios {
		tr := chainTrace(t, sc)
		var windows int
		p, err := pipeline.New(pipeline.Config{
			Shards:     2,
			WindowUS:   5_000_000,
			NewSampler: func(int) (online.Sampler, error) { return online.NewSystematic(1, 0) },
			OnSnapshot: func(s *pipeline.Snapshot) {
				windows++
				if s.SizeReport == nil || s.IatReport == nil {
					t.Errorf("scenario %q window %d: unscored (%d offered)", name, s.Seq, s.Offered)
					return
				}
				if s.SizeReport.Phi >= 1e-12 || s.IatReport.Phi >= 1e-12 {
					t.Errorf("scenario %q window %d: census phi[size]=%g phi[iat]=%g",
						name, s.Seq, s.SizeReport.Phi, s.IatReport.Phi)
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Run(tr.Replay()); err != nil {
			t.Fatal(err)
		}
		if windows < 10 {
			t.Errorf("scenario %q: %d windows", name, windows)
		}
	}
}
