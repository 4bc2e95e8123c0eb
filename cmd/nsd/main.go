// Command nsd is the streaming characterization daemon: the node-side
// system of the paper's Section 2, built on internal/pipeline. It runs
// one of the paper's sampling methods over a packet stream across N
// worker shards, maintains windowed size/interarrival histograms, flow
// accounting, and heavy-hitter sketches over the selected packets,
// scores each window against the reference population (φ and friends),
// and exports the latest snapshot over the collect wire protocol so a
// NOC can poll it (Collector.PollSnapshot).
//
// Usage:
//
//	nsd -in trace.nstr [-method systematic] [-k 100] [-shards 1]
//	    [-window 0] [-listen 127.0.0.1:0] ...
//	nsd -gen [-seconds 120] [-pps 424] [-scenario ddos] ...
//	nsd -gen -adaptive -window 5s [-k 16] [-min-k 4] [-max-k 4096]
//	    [-target 0.25] ...
//
// -adaptive replaces the fixed sampler with the closed-loop controller
// of DESIGN.md §5: every window barrier, the merged snapshot's worst
// φ steers the next window's systematic k inside
// [-min-k, -max-k], starting from -k. The decision runs on the virtual
// clock at the stream cut, so an adaptive run stays bit-identical for
// any -shards at the same seed.
//
// The daemon is deterministic: all randomness comes from -seed, and
// windowing runs on the virtual clock of the packet timestamps. One
// sampler runs over the whole stream ahead of the fan-out, so -method
// means the paper's method of the link for any -shards: the shard count
// changes no output, and the final snapshot's
// reports are bit-identical to the batch evaluator in internal/core on
// the same trace and seed (pinned by a tier-1 test).
// SIGINT/SIGTERM drain the pipeline cleanly and the final snapshot is
// printed before exit.
//
// Retention: -store appends every cut window snapshot to an append-only
// Merkle-chained segment store (internal/store, DESIGN.md §7); query it
// offline with nocquery, which replays the exact wire payloads the live
// exporter serves. A window the store refuses (a full disk) does not stop
// the daemon, but it is counted: at drain nsd logs "store: N window(s)
// not persisted" and the process exits non-zero.
//
// Profiling: -pprof serves net/http/pprof on the given address, and
// -mutex-profile-fraction / -block-profile-rate enable the runtime's
// contention profilers, so shard hand-off and scheduler behavior is
// observable in production runs (see README for a capture recipe).
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"netsample/internal/arts"
	"netsample/internal/bins"
	"netsample/internal/collect"
	"netsample/internal/core"
	"netsample/internal/dist"
	"netsample/internal/online"
	"netsample/internal/pipeline"
	"netsample/internal/store"
	"netsample/internal/trace"
	"netsample/internal/traffgen"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("nsd: ")

	var (
		listen   = flag.String("listen", "127.0.0.1:0", "agent listen address")
		in       = flag.String("in", "", "NSTR trace file to stream (mutually exclusive with -gen)")
		gen      = flag.Bool("gen", false, "generate the input with traffgen instead of reading a file")
		seconds  = flag.Int("seconds", 120, "generated trace duration in seconds (-gen)")
		pps      = flag.Float64("pps", 424, "generated average packets per second (-gen)")
		scenario = flag.String("scenario", "", "generate a preset anomaly scenario instead of steady-state traffic (-gen): "+strings.Join(traffgen.ScenarioNames(), ", "))
		method   = flag.String("method", "systematic",
			"sampling method, applied to the whole stream at any shard count: systematic, stratified, systematic-timer, stratified-timer")
		k            = flag.Int("k", 100, "sampling granularity (1 in k packets, or the timer equivalent)")
		adaptive     = flag.Bool("adaptive", false, "closed-loop systematic sampling: steer k per window against -target (requires -window > 0; -k is the starting granularity)")
		minK         = flag.Int("min-k", 1, "adaptive: finest granularity the controller may choose")
		maxK         = flag.Int("max-k", 4096, "adaptive: coarsest granularity the controller may choose")
		targetPhi    = flag.Float64("target", 0.25, "adaptive: φ budget; refine when a window's worst φ exceeds it")
		shards       = flag.Int("shards", 1, "worker shard count (flows are hash-partitioned after selection; the selected set does not depend on it)")
		window       = flag.Duration("window", 0, "snapshot window on the trace's virtual clock (0 = one final window)")
		seed         = flag.Uint64("seed", 1993, "root RNG seed for random methods and -gen")
		topk         = flag.Int("topk", pipeline.DefaultTopKReport, "heavy-hitter flows per snapshot")
		flowTimeout  = flag.Duration("flow-timeout", 15*time.Second, "flow idle timeout on the virtual clock")
		name         = flag.String("name", "nsd", "node name in exported snapshots")
		storeDir     = flag.String("store", "", "persist every window snapshot to this store directory (append-only segment log)")
		storeSync    = flag.Int("store-sync", store.DefaultSyncEvery, "store group commit: fsync once per this many snapshots")
		storeSegment = flag.Int("store-segment", store.DefaultSegmentRecords, "snapshots per store segment before it is sealed")
		once         = flag.Bool("once", false, "exit when the source drains instead of serving until a signal")
		quiet        = flag.Bool("q", false, "suppress per-window snapshot lines")
		pprofAddr    = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. 127.0.0.1:6060)")
		mutexFrac    = flag.Int("mutex-profile-fraction", 0, "runtime.SetMutexProfileFraction rate (0 = off)")
		blockRate    = flag.Int("block-profile-rate", 0, "runtime.SetBlockProfileRate in ns (0 = off)")
	)
	flag.Parse()

	if *mutexFrac > 0 {
		runtime.SetMutexProfileFraction(*mutexFrac)
	}
	if *blockRate > 0 {
		runtime.SetBlockProfileRate(*blockRate)
	}
	if *pprofAddr != "" {
		ln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			log.Fatalf("pprof: %v", err)
		}
		log.Printf("pprof listening on %s", ln.Addr())
		//nslint:allow waitstall pprof server is process-lifetime by design; the listener dies with the daemon
		go func() {
			// DefaultServeMux carries the net/http/pprof handlers.
			if err := http.Serve(ln, nil); err != nil {
				log.Printf("pprof: %v", err)
			}
		}()
	}

	if (*in == "") == !*gen {
		log.Fatal("exactly one of -in or -gen is required")
	}
	tr, src, closeSrc, err := loadSource(*in, *gen, *scenario, *seconds, *pps, *seed)
	if err != nil {
		log.Fatal(err)
	}
	if tr.Len() == 0 {
		log.Fatal("input trace is empty")
	}

	cfg, err := buildConfig(tr, *method, *k, *window, *seed, *topk, *flowTimeout)
	if err != nil {
		log.Fatal(err)
	}
	if *adaptive {
		if *method != "systematic" {
			log.Fatalf("-adaptive steers systematic granularity; -method %s is not supported", *method)
		}
		if *window <= 0 {
			log.Fatal("-adaptive needs -window > 0: decisions happen at window barriers")
		}
		cfg.NewSampler = nil
		cfg.Adaptive = &pipeline.AdaptiveConfig{
			MinK:      *minK,
			MaxK:      *maxK,
			StartK:    *k,
			TargetPhi: *targetPhi,
		}
	}
	cfg.Shards = *shards
	var (
		sw   *store.Writer
		sink *pipeline.StoreSink
	)
	if *storeDir != "" {
		sw, err = store.Open(*storeDir, store.Options{
			SyncEvery:      *storeSync,
			SegmentRecords: *storeSegment,
		})
		if err != nil {
			log.Fatalf("store: %v", err)
		}
		sink = &pipeline.StoreSink{Node: *name, To: sw}
	}
	if !*quiet || sink != nil {
		cfg.OnSnapshot = func(s *pipeline.Snapshot) {
			if !*quiet {
				fmt.Println(summarize(s))
			}
			if sink != nil {
				sink.OnSnapshot(s)
			}
		}
	}
	p, err := pipeline.New(cfg)
	if err != nil {
		log.Fatal(err)
	}

	agent := collect.NewAgent(*name, arts.T3)
	agent.Snapshots = pipeline.NewExporter(p, *name)
	addr, err := agent.Serve(*listen)
	if err != nil {
		log.Fatalf("serve: %v", err)
	}
	// The banner is part of the CLI contract: tests and scripts parse the
	// bound address from it.
	fmt.Printf("nsd: listening on %s\n", addr)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	stopped := make(chan struct{})
	go func() {
		<-sigc
		log.Print("signal received; draining")
		p.Stop()
		close(stopped)
	}()

	if err := p.Run(src); err != nil {
		log.Fatalf("pipeline: %v", err)
	}
	if final, ok := p.Latest(); ok && *quiet {
		fmt.Println(summarize(final))
	}
	// A window the store refused, or a tail it could not sync, is data
	// loss: the daemon still serves what it has, but exits non-zero.
	storeFailed := false
	if sink != nil {
		if err := sink.Err(); err != nil {
			log.Printf("store: %v", err)
			storeFailed = true
		}
		// Flush and fsync the tail; the segment stays unsealed so the
		// next run resumes it.
		if err := sw.Close(); err != nil {
			log.Printf("store: %v", err)
			storeFailed = true
		}
	}

	if !*once {
		select {
		case <-stopped:
		default:
			log.Print("source drained; serving snapshots until SIGINT/SIGTERM")
			<-stopped
		}
	}
	// A crashed accept loop (exhausted retries, listener closed
	// underneath us) must be visible at shutdown, not silently folded
	// into a clean exit.
	if err := agent.Err(); err != nil {
		log.Printf("agent: %v", err)
	}
	if err := agent.Close(); err != nil {
		log.Printf("close: %v", err)
	}
	// The input is released last. Run's workers held views into the
	// mapping until the drain, and the reference trace the evaluators
	// keep for the whole serving phase *is* the mapping: with the agent
	// closed nothing is left that could read it.
	if err := closeSrc(); err != nil {
		log.Printf("close input: %v", err)
	}
	if storeFailed {
		os.Exit(1)
	}
}

// loadSource opens the daemon's input: the reference population trace
// (which snapshot scoring needs in memory) plus the pipeline source to
// stream, plus a release. A file input is memory-mapped once and is
// both: the pipeline ingests raw record windows straight out of the
// page cache, and the reference trace is a read-only view of the same
// records (DESIGN.md §3) — it dies with the release, so call that only
// when nothing holding the trace (the evaluators included) can run
// again. Generated input replays from memory and its release is a
// no-op.
func loadSource(in string, gen bool, scenario string, seconds int, pps float64, seed uint64) (*trace.Trace, pipeline.Source, func() error, error) {
	if gen {
		if scenario != "" {
			s, err := traffgen.PresetScenario(scenario, seed, time.Duration(seconds)*time.Second)
			if err != nil {
				return nil, nil, nil, err
			}
			tr, err := traffgen.GenerateScenario(s)
			if err != nil {
				return nil, nil, nil, err
			}
			return tr, tr.Replay(), func() error { return nil }, nil
		}
		cfg := traffgen.NSFNETHour()
		cfg.Seed = seed
		cfg.Duration = time.Duration(seconds) * time.Second
		cfg.TargetPPS = pps
		tr, err := traffgen.Generate(cfg)
		if err != nil {
			return nil, nil, nil, err
		}
		return tr, tr.Replay(), func() error { return nil }, nil
	}
	mr, err := trace.OpenMap(in)
	if err != nil {
		return nil, nil, nil, err
	}
	tr, err := mr.Trace()
	if err != nil {
		// The format error is the one to report; an unmap failure on the
		// abandoned mapping has no caller-visible effect.
		//nslint:allow errdrop trace materialization failed; the munmap error would mask the real cause
		mr.Close()
		return nil, nil, nil, err
	}
	return tr, mr, mr.Close, nil
}

// buildConfig assembles the pipeline configuration: the one sampler of
// the chosen method, and the reference evaluators, which reuse the input
// trace as the known parent population.
func buildConfig(tr *trace.Trace, method string, k int,
	window time.Duration, seed uint64, topk int, flowTimeout time.Duration) (pipeline.Config, error) {

	cfg := pipeline.Config{
		WindowUS:      window.Microseconds(),
		TopKReport:    topk,
		FlowTimeoutUS: flowTimeout.Microseconds(),
	}

	// The random methods draw from the first child of the seed's root
	// stream: a run's batch twin is Select(tr, dist.NewRNG(seed).Split()).
	rng := dist.NewRNG(seed).Split()
	// Only the timer methods read the period; a trace too short to have
	// one leaves it 0, which their constructors reject.
	period, _ := core.PeriodForGranularity(tr, float64(k))
	cfg.NewSampler = func(int) (online.Sampler, error) {
		return online.New(method, k, period, rng)
	}

	var err error
	if cfg.SizeEval, err = core.NewEvaluator(tr, core.TargetSize, bins.PacketSize()); err != nil {
		return cfg, fmt.Errorf("size evaluator: %w", err)
	}
	if cfg.IatEval, err = core.NewEvaluator(tr, core.TargetInterarrival, bins.Interarrival()); err != nil {
		return cfg, fmt.Errorf("interarrival evaluator: %w", err)
	}
	return cfg, nil
}

// summarize renders one snapshot line for the operator.
func summarize(s *pipeline.Snapshot) string {
	line := fmt.Sprintf("window %d [%dus,%dus)", s.Seq, s.WindowStartUS, s.WindowEndUS)
	if s.Final {
		line += " final"
	}
	line += fmt.Sprintf(": offered=%d processed=%d selected=%d dropped=%d flows=%d",
		s.Offered, s.Processed, s.Selected, s.Dropped, s.FlowCounts.Flows)
	if s.K > 0 {
		line += fmt.Sprintf(" k=%d", s.K)
	}
	if s.SizeReport != nil {
		line += fmt.Sprintf(" phi[size]=%.4f", s.SizeReport.Phi)
	}
	if s.IatReport != nil {
		line += fmt.Sprintf(" phi[iat]=%.4f", s.IatReport.Phi)
	}
	return line
}
