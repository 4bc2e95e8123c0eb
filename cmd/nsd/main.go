// Command nsd is the streaming characterization daemon: the node-side
// system of the paper's Section 2, built on internal/pipeline. It runs
// one of the paper's sampling methods over a packet stream across N
// worker shards, maintains windowed size/interarrival histograms, flow
// accounting, and heavy-hitter sketches over the selected packets,
// scores each window against its parent population, every packet the
// window offered (φ and friends),
// and exports the latest snapshot over the collect wire protocol so a
// NOC can poll it (Collector.PollSnapshot).
//
// Usage:
//
//	nsd -in trace.nstr [-method systematic] [-k 100] [-shards 1]
//	    [-window 0] [-listen 127.0.0.1:0] ...
//	nsd -in trace.nstr -adaptive -window 5s [-k 16] [-min-k 4]
//	    [-max-k 4096] [-target 0.25] ...
//
// The input is an NSTR file (nstrace gen writes one, steady-state or a
// preset anomaly scenario), mapped and streamed without ever holding
// the population: the timer period, k times the mean gap, comes in O(1)
// from the header's record count and the first and last records.
//
// -adaptive replaces the fixed sampler with the closed-loop controller
// of DESIGN.md §5: every window barrier, the merged snapshot's worst
// φ steers the next window's systematic k inside
// [-min-k, -max-k], starting from -k. The decision runs on the virtual
// clock at the stream cut, so an adaptive run stays bit-identical for
// any -shards at the same seed. -adaptive with a -method other than
// systematic, or without a -window, exits 2 with the usage text before
// the trace is opened.
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
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"netsample/internal/arts"
	"netsample/internal/collect"
	"netsample/internal/core"
	"netsample/internal/dist"
	"netsample/internal/online"
	"netsample/internal/pipeline"
	"netsample/internal/store"
	"netsample/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("nsd: ")

	var (
		listen = flag.String("listen", "127.0.0.1:0", "agent listen address")
		in     = flag.String("in", "", "NSTR trace file to stream (required; nstrace gen writes one)")
		method = flag.String("method", "systematic",
			"sampling method, applied to the whole stream at any shard count: systematic, stratified, systematic-timer, stratified-timer")
		k            = flag.Int("k", 100, "sampling granularity (1 in k packets, or the timer equivalent)")
		adaptive     = flag.Bool("adaptive", false, "closed-loop systematic sampling: steer k per window against -target (requires -window > 0; -k is the starting granularity)")
		minK         = flag.Int("min-k", 1, "adaptive: finest granularity the controller may choose")
		maxK         = flag.Int("max-k", 4096, "adaptive: coarsest granularity the controller may choose")
		targetPhi    = flag.Float64("target", 0.25, "adaptive: φ budget; refine when a window's worst φ exceeds it")
		shards       = flag.Int("shards", 1, "worker shard count (flows are hash-partitioned after selection; the selected set does not depend on it)")
		window       = flag.Duration("window", 0, "snapshot window on the trace's virtual clock (0 = one final window)")
		seed         = flag.Uint64("seed", 1993, "root RNG seed for the random methods")
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

	// The store, flow table and snapshot would replace a value below
	// these bounds with their defaults, and the flow timeout and window
	// are kept in whole µs. The store's flags mean nothing without
	// -store, nor the controller's without -adaptive, under which
	// 1 <= -min-k <= -k <= -max-k and a positive -target (NaN fails the
	// negated test) must hold, as the pipeline requires; it steers
	// systematic granularity, at window barriers, so it also needs
	// -method systematic and a -window.
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if *storeSync < 1 || *storeSegment < 1 || *topk < 1 || *flowTimeout < time.Microsecond ||
		*storeDir == "" && (set["store-sync"] || set["store-segment"]) ||
		*window > 0 && *window < time.Microsecond || *shards < 1 ||
		!*adaptive && (set["target"] || set["min-k"] || set["max-k"]) ||
		*adaptive && (*minK < 1 || *minK > *k || *k > *maxK || !(*targetPhi > 0) ||
			*method != "systematic" || *window <= 0) {
		flag.Usage()
		os.Exit(2)
	}
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

	if *in == "" {
		log.Fatal("-in is required (nstrace gen writes a trace)")
	}
	// The pipeline ingests raw record windows straight out of the page
	// cache; a torn file is refused here, before anything is served.
	src, err := trace.OpenMap(*in)
	if err != nil {
		log.Fatal(err)
	}
	records, firstUS, lastUS, err := src.Span()
	if err != nil {
		log.Fatal(err)
	}
	if records == 0 {
		log.Fatal("input trace is empty")
	}

	cfg := buildConfig(records, lastUS-firstUS, *method, *k, *window, *seed, *topk, *flowTimeout)
	if *adaptive {
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

	err = p.Run(src)
	// Nothing reads the mapping once Run returns: the served snapshots
	// are copies.
	if cerr := src.Close(); cerr != nil {
		log.Printf("close input: %v", cerr)
	}
	if err != nil {
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
	if storeFailed {
		os.Exit(1)
	}
}

// buildConfig assembles the pipeline configuration: the one sampler of
// the chosen method. Each window is scored against the parent the
// pipeline's reader tallies; of the input only its record count and
// span are read, for the timer period.
func buildConfig(records int, spanUS int64, method string, k int,
	window time.Duration, seed uint64, topk int, flowTimeout time.Duration) pipeline.Config {

	cfg := pipeline.Config{
		WindowUS:      window.Microseconds(),
		TopKReport:    topk,
		FlowTimeoutUS: flowTimeout.Microseconds(),
	}

	// The random methods draw from the first child of the seed's root
	// stream: a run's batch twin is Select(tr, dist.NewRNG(seed).Split()).
	rng := dist.NewRNG(seed).Split()
	// Only the timer methods read the period. Where there is none (a
	// trace too short to have one, a k whose period overflows) their
	// constructors refuse the 0, and perr says why.
	period, perr := core.PeriodForSpan(records, spanUS, float64(k))
	cfg.NewSampler = func(int) (online.Sampler, error) {
		s, err := online.New(method, k, period, rng)
		if perr != nil && errors.Is(err, online.ErrBadPeriod) {
			return nil, fmt.Errorf("%w: %w", err, perr)
		}
		return s, err
	}
	return cfg
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
