package main

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// Lap protocol. A run is discarded warm-up laps — lap 0 is the fully
// verified one — then measured laps until the run's seconds are spent,
// with an untimed runtime.GC() between laps; each timing metric is the
// median measured lap. Warm-up lasts at least warmupLaps laps and at
// least warmupTime: the first second after set-up runs up to twice as
// slow as what follows (backbone-k50 laps of 45–75 ms settling to 33),
// and two 33 ms laps do not outlast it.
const (
	warmupLaps = 2
	warmupTime = time.Second
	// minLaps is the fewest measured laps (suite iterations) an
	// untraced run accepts before reporting a median; a traced run
	// takes at least minTracedLaps with tracing off and as many on.
	minLaps       = 4
	minTracedLaps = 2
	// setupRepeats is how often an untraced run sets up; setup_s is the
	// median.
	setupRepeats = 3
	// tracedLaps caps the laps recorded with spans: enough for a median,
	// few enough that spans.json stays a few megabytes.
	tracedLaps = 5
)

// runOpts selects one run.
type runOpts struct {
	workload string
	seed     uint64
	seconds  int
	traced   bool
	tmp      string // parent of the run's scratch dir
	spans    string // where a traced run writes its spans; empty: <tmp>/spans-<workload>.json
}

// spansPath is where a traced run leaves its spans.
func (o runOpts) spansPath() string {
	if o.spans != "" {
		return o.spans
	}
	return filepath.Join(o.tmp, "spans-"+o.workload+".json")
}

// runWorkload runs one workload once and returns its result. A
// non-nil error means the run is void (HARNESS_ERROR, or a stage of the
// traced run failed outright): nothing from it may be reported.
func runWorkload(o runOpts) (*result, error) {
	w, ok := findWorkload(o.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	return w.run(o)
}

// run is runWorkload for a workload value (the self-tests bring a
// small one of their own).
func (w workload) run(o runOpts) (*result, error) {
	if err := os.MkdirAll(o.tmp, 0o755); err != nil {
		return nil, harnessErr("scratch dir", err)
	}
	tmp, err := os.MkdirTemp(o.tmp, "run-")
	if err != nil {
		return nil, harnessErr("scratch dir", err)
	}
	defer os.RemoveAll(tmp)

	res := &result{
		Workload: w.Name, Traced: o.traced,
		Cohort:  stampCohort(o.seed, o.seconds),
		Metrics: make(map[string]metricValue),
	}

	// Set-up: everything before lap 0. The paper-suite workload needs
	// only the in-memory trace; a traced run opens the stream for it
	// too, to measure the streaming layers on its input.
	repeats := setupRepeats
	if o.traced {
		repeats = 1
	}
	var in *input
	var setupS []float64
	for i := 0; i < repeats; i++ {
		if in != nil {
			if err := in.close(); err != nil {
				return nil, harnessErr("unmap trace", err)
			}
			in = nil
			runtime.GC()
		}
		t0 := time.Now()
		if in, err = w.generate(o.seed); err != nil {
			return nil, err
		}
		if !w.Batch || o.traced {
			if err := in.openStream(tmp); err != nil {
				return nil, err
			}
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer in.close()

	budget := time.Duration(o.seconds) * time.Second
	switch {
	case o.traced:
		err = runTraced(res, w, in, tmp, o, budget)
	case w.Batch:
		if first := prepareSuite(res, in, o.seed); first != nil {
			var s suiteSamples
			for n, start := 0, time.Now(); !spent(n, minLaps, start, budget); n++ {
				measureIter(res, nil, in, o.seed, first, &s)
			}
			res.setSuite(s)
		}
	default:
		env := newStreamEnv(w, in, tmp)
		var verified *lapResult
		if verified, err = prepareStream(res, env); err == nil && verified != nil {
			var s streamSamples
			for n, start := 0, time.Now(); err == nil && !spent(n, minLaps, start, budget); n++ {
				err = measureLap(res, nil, env, verified, &s)
			}
			res.setStream(s, true)
		}
	}
	if err != nil {
		return nil, err
	}
	if !o.traced {
		res.setSamples("setup_s", setupS)
		rss, err := peakRSSMB()
		if err != nil {
			return nil, harnessErr("read VmHWM", err)
		}
		res.setMetric("peak_rss_mb", rss, nil)
	}
	return res, nil
}

// prepareStream runs the verified lap and the remaining warm-up laps.
// It returns the verified lap, or nil when that lap failed its checks:
// it is the reference every measured lap is held to, so nothing
// measured after a bad one would mean anything, and the run ends with
// the failure recorded.
func prepareStream(res *result, env *streamEnv) (*lapResult, error) {
	verified, err := env.runLap(nil, 0, true)
	if err != nil {
		return nil, err
	}
	if failed, why := checkVerifiedLap(env.w, env.in, verified); failed > 0 {
		res.addLap(0, len(verified.Windows)+1, failed, why, verified.RunNS, verified.QueryNS)
		return nil, nil
	}
	verified.Live, verified.Replayed = nil, nil
	for lap, start := 1, time.Now(); lap < warmupLaps || time.Since(start) < warmupTime; lap++ {
		runtime.GC()
		if _, err := env.runLap(nil, lap, false); err != nil {
			return nil, err
		}
	}
	return verified, nil
}

// streamSamples holds the per-lap (cutMS: per-window) samples of a
// batch of measured streaming laps.
type streamSamples struct {
	pps, runMS, queryMS, cutMS          []float64
	windows, selected, meanK, decisions []float64
	allocsPerPkt, gcCycles              []float64
}

// spent reports whether a measuring loop is done: at least least laps,
// and the budget used up.
func spent(n, least int, start time.Time, budget time.Duration) bool {
	return n >= least && time.Since(start) >= budget
}

// measureLap runs one measured lap — after an untimed GC — checks it
// against the verified lap, records it, and adds its samples to s. A
// lap that fails a check is recorded and contributes no samples.
func measureLap(res *result, tr *tracer, env *streamEnv, verified *lapResult, s *streamSamples) error {
	pkts := float64(env.in.ref.Len())
	lap := len(res.Laps) + warmupLaps
	runtime.GC()
	lr, err := env.runLap(tr, lap, false)
	if err != nil {
		return err
	}
	failed, why := checkMeasuredLap(env.in, verified, lr)
	res.addLap(lap, len(lr.Windows)+1, failed, why, lr.RunNS, lr.QueryNS)
	if failed > 0 {
		return nil
	}
	s.pps = append(s.pps, pkts/(float64(lr.RunNS)/1e9))
	s.runMS = append(s.runMS, float64(lr.RunNS)/1e6)
	s.queryMS = append(s.queryMS, float64(lr.QueryNS)/1e6)
	for _, ns := range lr.CutNS {
		s.cutMS = append(s.cutMS, float64(ns)/1e6)
	}
	s.windows = append(s.windows, float64(len(lr.Windows)))
	s.selected = append(s.selected, float64(lr.Merged.Selected)/float64(lr.Merged.Offered))
	var ksum float64
	for _, wi := range lr.Windows {
		k := wi.K
		if k == 0 {
			k = env.w.K // fixed-sampler snapshots carry no k
		}
		ksum += float64(k)
	}
	s.meanK = append(s.meanK, ksum/float64(len(lr.Windows)))
	s.decisions = append(s.decisions, float64(len(lr.Decisions)))
	s.allocsPerPkt = append(s.allocsPerPkt, float64(lr.Mallocs)/pkts)
	s.gcCycles = append(s.gcCycles, float64(lr.GCCycles))
	return nil
}

// setStream reports the end-to-end numbers of untraced streaming laps.
// primary is false for paper-suite's shadow laps, whose throughput is
// not the workload's.
func (r *result) setStream(s streamSamples, primary bool) {
	if !r.timingValid() {
		return
	}
	if primary {
		r.setSamples("pkts_per_s", s.pps)
		r.setSamples("allocs_per_pkt", s.allocsPerPkt)
	}
	r.setSamples("query_ms", s.queryMS)
	cut := summarize(s.cutMS)
	r.setMetric("cut_latency_ms_p50", percentile(s.cutMS, 50), &cut)
	r.setMetric("pipeline.cut_latency_ms_p90", percentile(s.cutMS, 90), nil)
	r.setMetric("pipeline.cut_latency_ms_p99", percentile(s.cutMS, 99), nil)
	r.setSamples("pipeline.windows_per_lap", s.windows)
	r.setSamples("pipeline.selected_frac", s.selected)
	r.setSamples("pipeline.mean_k", s.meanK)
	r.setSamples("pipeline.decisions_per_lap", s.decisions)
}

// prepareSuite runs the warm-up iteration of the paper-suite workload,
// the reference the measured iterations are compared with; nil when it
// failed its own checks.
func prepareSuite(res *result, in *input, seed uint64) *suiteIter {
	first := runSuiteIter(nil, 0, in.gen, seed)
	if failed, why := checkSuiteIter(first, first); failed > 0 {
		res.addLap(0, first.Results, failed, why, first.SuiteNS+first.MatrixNS, 0)
		return nil
	}
	return first
}

// suiteSamples holds the per-iteration samples of measured suite
// iterations.
type suiteSamples struct {
	suiteS, matrixS, pps, allocsPerPkt, runMS, suiteAllocs, matrixAllocs []float64
}

// measureIter runs one measured suite iteration, checks it against the
// first, records it, and adds its samples to s.
func measureIter(res *result, tr *tracer, in *input, seed uint64, first *suiteIter, s *suiteSamples) {
	lap := len(res.Laps) + 1
	runtime.GC()
	it := runSuiteIter(tr, lap, in.gen, seed)
	failed, why := checkSuiteIter(first, it)
	res.addLap(lap, it.Results, failed, why, it.SuiteNS+it.MatrixNS, 0)
	if failed > 0 {
		return
	}
	total := float64(it.SuiteNS + it.MatrixNS)
	s.suiteS = append(s.suiteS, float64(it.SuiteNS)/1e9)
	s.matrixS = append(s.matrixS, float64(it.MatrixNS)/1e9)
	s.pps = append(s.pps, float64(in.gen.Len())/(total/1e9))
	s.allocsPerPkt = append(s.allocsPerPkt, float64(it.SuiteMallocs+it.MatrixMallocs)/float64(in.gen.Len()))
	s.runMS = append(s.runMS, total/1e6)
	s.suiteAllocs = append(s.suiteAllocs, float64(it.SuiteMallocs))
	s.matrixAllocs = append(s.matrixAllocs, float64(it.MatrixMallocs))
}

// setSuite reports the end-to-end numbers of untraced suite iterations.
func (r *result) setSuite(s suiteSamples) {
	if !r.timingValid() {
		return
	}
	r.setSamples("pkts_per_s", s.pps)
	r.setSamples("allocs_per_pkt", s.allocsPerPkt)
	r.setSamples("suite_s", s.suiteS)
	r.setSamples("matrix_s", s.matrixS)
}

// addLap records one lap's outcome. A lap cannot fail more operations
// than it attempted.
func (r *result) addLap(lap, ops, failed int, why []string, runNS, queryNS int64) {
	if failed > ops {
		failed = ops
	}
	state := lapValid
	if failed > 0 {
		state = lapCheckFailed
	} else {
		r.ValidLaps++
	}
	r.MeasuredLaps++
	r.Ops += ops
	r.FailedOps += failed
	r.Laps = append(r.Laps, lapRecord{
		Lap: lap, State: state, Ops: ops, Failed: failed, Why: why,
		RunMS: float64(runNS) / 1e6, QueryMS: float64(queryNS) / 1e6,
	})
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) < 1 {
				break
			}
			kb, err := strconv.ParseFloat(fields[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("no VmHWM line in /proc/self/status")
}
