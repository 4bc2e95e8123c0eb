package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"netsample/internal/bins"
	"netsample/internal/core"
	"netsample/internal/online"
	"netsample/internal/pipeline"
	"netsample/internal/trace"
	"netsample/internal/traffgen"
)

// nodeName is the node name stamped into exported snapshots, nsd's
// default.
const nodeName = "nsd"

// workload is one named set of inputs plus the pipeline configuration
// it is streamed under. Names are fixed: later issues cite them.
type workload struct {
	Name string
	// Why is the one-line reason the workload exists (BENCHMARK.json
	// carries the same text).
	Why string
	// Scenario names a traffgen preset anomaly scenario; empty means
	// the paper's benign NSFNET hour.
	Scenario string
	Duration time.Duration
	// K is the fixed systematic granularity; Adaptive replaces it with
	// the closed-loop schedule.
	K        int
	Adaptive *pipeline.AdaptiveConfig
	Shards   int
	Window   time.Duration
	// Batch marks the paper-suite workload: its laps are iterations of
	// the batch experiment suite over the in-memory trace. The streaming
	// fields above are then a shadow configuration, used only by the
	// traced run to measure the streaming layers on this input.
	Batch bool
}

// workloads lists the six workloads in report order.
var workloads = []workload{
	{
		Name:     "backbone-k50",
		Why:      "Paper's T3 point: 1-in-50 systematic, 15-min windows, 1 shard; read, partition and ring hand-off dominate. Minimal-topology baseline.",
		Duration: time.Hour, K: 50, Shards: 1, Window: 15 * time.Minute,
	},
	{
		Name:     "census-k1",
		Why:      "Every packet selected (k=1) on the benign hour: flow-table updates, top-K and bin lookups dominate; a shard-side change shows here, not on backbone-k50.",
		Duration: time.Hour, K: 1, Shards: 1, Window: 15 * time.Minute,
	},
	{
		Name:     "fine-windows",
		Why:      "k=50 with 1 s windows (3600 per lap): cut, merge, score, wire, encode, store append and fsync dominate; the only workload where store and cold query do real work.",
		Duration: time.Hour, K: 50, Shards: 1, Window: time.Second,
	},
	{
		Name:     "ddos-flood",
		Why:      "20-min SYN-flood trace, k=1, 2 shards, 60 s windows: flow inserts and 130k-flow Flush sorts instead of updates; hash fan-out and two rings carry full traffic.",
		Scenario: "ddos", Duration: 20 * time.Minute, K: 1, Shards: 2, Window: time.Minute,
	},
	{
		Name:     "adaptive-ddos",
		Why:      "Same ddos trace under closed-loop adaptive k (start 50, bounds 1..4096, 10 s windows): reader-owned global schedule and a reader parked at every barrier.",
		Scenario: "ddos", Duration: 20 * time.Minute, Shards: 1, Window: 10 * time.Second,
		Adaptive: &pipeline.AdaptiveConfig{MinK: 1, MaxK: 4096, StartK: 50, TargetPhi: 0.25, DropBudget: 0},
	},
	{
		Name:     "paper-suite",
		Why:      "Batch core/experiment evaluator behind the paper's figures (experiment.All, then Matrix) on the in-memory hour: no trace file, store or cold query; predict-no-change row for ingest and store work.",
		Duration: time.Hour, K: 50, Shards: 1, Window: 15 * time.Minute, Batch: true,
	},
}

// findWorkload returns the workload called name.
func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// errHarness marks failures of the harness's own environment — temp
// dir, trace file, mmap, listen. A run that hits one is void: it exits
// non-zero and is never folded into a metric.
var errHarness = errors.New("HARNESS_ERROR")

func harnessErr(op string, err error) error {
	return fmt.Errorf("%w: %s: %v", errHarness, op, err)
}

// input is a workload's generated trace and, once opened for
// streaming, the mapped trace file, the reference population
// materialized from it and the two reference evaluators — everything
// nsd -in builds before its pipeline runs.
type input struct {
	gen *trace.Trace // as generated; the program under test sees only its bytes

	path     string
	mr       *trace.MapReader
	ref      *trace.Trace
	sizeEval *core.Evaluator
	iatEval  *core.Evaluator

	// Set-up stage timings, nanoseconds.
	generateNS, writeNS, mapNS, materializeNS, evaluatorNS int64
}

// generate builds w's trace from seed. The seed reaches traffgen and
// nothing else.
func (w workload) generate(seed uint64) (*input, error) {
	t0 := time.Now()
	var tr *trace.Trace
	var err error
	if w.Scenario != "" {
		var s traffgen.Scenario
		if s, err = traffgen.PresetScenario(w.Scenario, seed, w.Duration); err == nil {
			tr, err = traffgen.GenerateScenario(s)
		}
	} else {
		cfg := traffgen.NSFNETHour()
		cfg.Seed = seed
		cfg.Duration = w.Duration
		tr, err = traffgen.Generate(cfg)
	}
	if err != nil {
		return nil, harnessErr("generate trace", err)
	}
	if tr.Len() == 0 {
		return nil, harnessErr("generate trace", errors.New("empty trace"))
	}
	return &input{gen: tr, generateNS: time.Since(t0).Nanoseconds()}, nil
}

// openStream writes the trace to dir as an NSTR file and opens it the
// way nsd -in does: memory-map, materialize the reference population
// from the mapping, build the size and interarrival evaluators.
func (in *input) openStream(dir string) error {
	t0 := time.Now()
	in.path = filepath.Join(dir, "input.nstr")
	f, err := os.Create(in.path)
	if err != nil {
		return harnessErr("create trace file", err)
	}
	if err := trace.Write(f, in.gen); err != nil {
		_ = f.Close() // the write error is the one to report
		return harnessErr("write trace file", err)
	}
	if err := f.Close(); err != nil {
		return harnessErr("close trace file", err)
	}
	t1 := time.Now()
	in.writeNS = t1.Sub(t0).Nanoseconds()

	if in.mr, err = trace.OpenMap(in.path); err != nil {
		return harnessErr("map trace file", err)
	}
	t2 := time.Now()
	in.mapNS = t2.Sub(t1).Nanoseconds()

	if in.ref, err = in.mr.Trace(); err != nil {
		return harnessErr("materialize trace", err)
	}
	t3 := time.Now()
	in.materializeNS = t3.Sub(t2).Nanoseconds()

	if in.sizeEval, err = core.NewEvaluator(in.ref, core.TargetSize, bins.PacketSize()); err != nil {
		return harnessErr("size evaluator", err)
	}
	if in.iatEval, err = core.NewEvaluator(in.ref, core.TargetInterarrival, bins.Interarrival()); err != nil {
		return harnessErr("interarrival evaluator", err)
	}
	in.evaluatorNS = time.Since(t3).Nanoseconds()
	return nil
}

// close unmaps the trace file. The file itself goes with the run's
// temp dir.
func (in *input) close() error {
	if in.mr == nil {
		return nil
	}
	err := in.mr.Close()
	in.mr = nil
	return err
}

// pipelineConfig assembles w's pipeline configuration the way nsd's
// buildConfig does: nsd's default queue depth, batch size, flow
// timeout and top-K, the Block policy, one systematic sampler per shard
// (or the adaptive schedule), and the two reference evaluators.
// windows and evaluators can be switched off for the stage replay's
// bare run.
func (w workload) pipelineConfig(in *input, windowed bool) pipeline.Config {
	cfg := pipeline.Config{
		Shards:        w.Shards,
		IngestWorkers: 1,
		QueueDepth:    pipeline.DefaultQueueDepth,
		BatchSize:     pipeline.DefaultBatchSize,
		Policy:        pipeline.Block,
		TopKReport:    pipeline.DefaultTopKReport,
		FlowTimeoutUS: pipeline.DefaultFlowTimeoutUS,
	}
	if windowed {
		cfg.WindowUS = w.Window.Microseconds()
		cfg.SizeEval = in.sizeEval
		cfg.IatEval = in.iatEval
	}
	if w.Adaptive != nil && windowed {
		a := *w.Adaptive
		cfg.Adaptive = &a
	} else {
		k := w.fixedK()
		cfg.NewSampler = func(int) (online.Sampler, error) { return online.NewSystematic(k, 0) }
	}
	return cfg
}

// fixedK is the systematic granularity of w's samplers; for the
// adaptive workload, the granularity it starts at.
func (w workload) fixedK() int {
	if w.Adaptive != nil {
		return w.Adaptive.StartK
	}
	return w.K
}
