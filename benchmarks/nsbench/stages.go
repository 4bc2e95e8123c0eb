package main

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"netsample/internal/arts"
	"netsample/internal/bins"
	"netsample/internal/collect"
	"netsample/internal/core"
	"netsample/internal/dist"
	"netsample/internal/experiment"
	"netsample/internal/flows"
	"netsample/internal/nnstat"
	"netsample/internal/online"
	"netsample/internal/pipeline"
	"netsample/internal/store"
	"netsample/internal/trace"
)

// Stage replay: the same workload input fed through each layer's
// public functions in isolation, output discarded. Every stage runs up
// to stageReps times or until stageBudget is spent, whichever comes
// first, and reports the median — cheap stages get three samples, a
// lap-sized stage gets one.
const (
	stageReps   = 3
	stageBudget = 300 * time.Millisecond
	// runPairs bare/windowed Run pairs, within runPairsBudget.
	runPairs       = 9
	runPairsBudget = 1500 * time.Millisecond
	// pollCount closed-loop PollSnapshot round trips over loopback.
	pollCount = 500
	// syncCount explicit Writer.Sync calls, one appended record each.
	syncCount = 32
	// replicateReps replications of 1-in-50 systematic sampling.
	replicateReps = 100
	// batchShadow is how much of a streaming workload's trace the
	// batch stages run on: the matrix's own scenario length. The whole
	// suite costs 6.5 s on the ddos trace and lies on no streaming
	// workload's path.
	batchShadow = 2 * time.Minute
)

// stageRunner carries what the stages share.
type stageRunner struct {
	w   workload
	in  *input
	tmp string
	tr  *tracer
	res *result

	pkts    int
	raws    [][]byte // raw record windows, one per hand-out
	shardOf []uint8  // per packet, from DecodeBatch
	gaps    []int64  // per packet interarrival gap
	sel     []int32  // indices of selected packets
	// bounds[i] is the index of the first packet of window i+1; the
	// last window ends at pkts.
	bounds []int
	snaps  []*pipeline.Snapshot
	wires  []*collect.Snapshot
	cutP   *pipeline.Pipeline
	// ledger rows, ns per trace packet.
	appendTotalNS, encodeTotalNS float64
}

// timed runs f repeatedly (see stageReps) under a span and returns the
// per-component medians of the nanosecond vectors it returns.
func (sr *stageRunner) timed(name string, f func() ([]int64, error)) ([]float64, error) {
	var samples [][]float64
	start := time.Now()
	for rep := 0; rep < stageReps; rep++ {
		runtime.GC() // untimed, as between laps: one stage's garbage is not collected on the next one's clock
		id := sr.tr.begin("stage:"+name, noSpan, -1)
		ns, err := f()
		sr.tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("stage %s: %w", name, err)
		}
		for len(samples) < len(ns) {
			samples = append(samples, nil)
		}
		for i, v := range ns {
			samples[i] = append(samples[i], float64(v))
		}
		if time.Since(start) >= stageBudget {
			break
		}
	}
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = summarize(s).Median
	}
	return out, nil
}

func (sr *stageRunner) set(name string, v float64) { sr.res.setMetric(name, v, nil) }

// windows is the number of windows per lap.
func (sr *stageRunner) windows() float64 { return float64(len(sr.snaps)) }

// runStreamStages measures every streaming layer on the workload's
// input under its (for paper-suite: shadow) pipeline configuration.
func (sr *stageRunner) runStreamStages() error {
	steps := []func() error{
		sr.stageTrace, sr.stagePartition, sr.stagePipelineRuns, sr.stageWire,
		sr.stageSelected, sr.stageScore, sr.stageStore, sr.stagePoll,
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return err
		}
	}
	return nil
}

// stageTrace: the source read loop and the record decoder.
func (sr *stageRunner) stageTrace() error {
	mr := sr.in.mr
	sr.pkts = sr.in.ref.Len()
	ns, err := sr.timed("trace.read", func() ([]int64, error) {
		mr.Rewind()
		sr.raws = sr.raws[:0]
		t0 := time.Now()
		for {
			raw, n, err := mr.NextRawBatch(pipeline.DefaultBatchSize)
			if n > 0 {
				sr.raws = append(sr.raws, raw)
			}
			if err != nil {
				if errors.Is(err, io.EOF) {
					break
				}
				return nil, err
			}
		}
		return []int64{time.Since(t0).Nanoseconds()}, nil
	})
	if err != nil {
		return err
	}
	sr.set("trace.read_ns_per_pkt", ns[0]/float64(sr.pkts))

	dst := make([]trace.Packet, pipeline.DefaultBatchSize)
	ns, err = sr.timed("trace.decode", func() ([]int64, error) {
		t0 := time.Now()
		for _, raw := range sr.raws {
			trace.DecodeRecords(dst, raw)
		}
		return []int64{time.Since(t0).Nanoseconds()}, nil
	})
	if err != nil {
		return err
	}
	sr.set("trace.decode_ns_per_pkt", ns[0]/float64(sr.pkts))
	return nil
}

// stagePartition: the fused decode/hash/gap kernel at the workload's
// shard count. It also leaves every packet's shard index and gap
// behind for the shard-side stages.
func (sr *stageRunner) stagePartition() error {
	dst := make([]trace.Packet, pipeline.DefaultBatchSize)
	sr.shardOf = make([]uint8, sr.pkts)
	sr.gaps = make([]int64, sr.pkts)
	ns, err := sr.timed("pipeline.partition", func() ([]int64, error) {
		t0 := time.Now()
		off := 0
		var prevUS int64
		for _, raw := range sr.raws {
			n := pipeline.DecodeBatch(dst, sr.shardOf[off:], sr.gaps[off:], raw, prevUS, sr.w.Shards)
			prevUS = dst[n-1].Time
			off += n
		}
		return []int64{time.Since(t0).Nanoseconds()}, nil
	})
	if err != nil {
		return err
	}
	sr.set("pipeline.partition_ns_per_pkt", ns[0]/float64(sr.pkts))
	return nil
}

// stagePipelineRuns: Run with nothing to cut (bare), then Run with the
// workload's windows and evaluators and an OnSnapshot that only keeps
// the pointer; the difference, per window, is what cutting costs.
func (sr *stageRunner) stagePipelineRuns() error {
	run := func(windowed bool) (int64, error) {
		cfg := sr.w.pipelineConfig(sr.in, windowed)
		if windowed {
			sr.snaps = sr.snaps[:0]
			cfg.OnSnapshot = func(s *pipeline.Snapshot) { sr.snaps = append(sr.snaps, s) }
		}
		p, err := pipeline.New(cfg)
		if err != nil {
			return 0, err
		}
		sr.in.mr.Rewind()
		t0 := time.Now()
		err = p.Run(sr.in.mr)
		ns := time.Since(t0).Nanoseconds()
		if windowed {
			sr.cutP = p
		}
		return ns, err
	}
	// The two runs alternate, so machine drift lands on both sides of
	// the difference, and get more repeats than other stages: a lap
	// wanders by tens of percent, and the per-window figure divides the
	// difference of two laps by as few as four windows.
	var bareNS, cutNS []float64
	start := time.Now()
	for rep := 0; rep < runPairs; rep++ {
		for _, windowed := range []bool{false, true} {
			name := "stage:pipeline.bare"
			if windowed {
				name = "stage:pipeline.cut"
			}
			runtime.GC()
			id := sr.tr.begin(name, noSpan, -1)
			ns, err := run(windowed)
			sr.tr.end(id)
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			if windowed {
				cutNS = append(cutNS, float64(ns))
			} else {
				bareNS = append(bareNS, float64(ns))
			}
		}
		if time.Since(start) >= runPairsBudget {
			break
		}
	}
	bare, cut := summarize(bareNS).Median, summarize(cutNS).Median
	if len(sr.snaps) == 0 {
		return errors.New("stage pipeline.cut: no windows cut")
	}
	sr.set("pipeline.bare_ns_per_pkt", bare/float64(sr.pkts))
	sr.set("pipeline.cut_us_per_window", (cut-bare)/sr.windows()/1e3)

	// Window boundaries as packet indices, and the selected set: the
	// per-shard every-k-th rule of fixed samplers, or the adaptive
	// reader's global schedule, which restarts whenever a barrier
	// changes k.
	sr.bounds = sr.bounds[:0]
	pk := sr.in.ref.Packets
	i := 0
	for _, s := range sr.snaps[:len(sr.snaps)-1] {
		for i < len(pk) && pk[i].Time < s.WindowEndUS {
			i++
		}
		sr.bounds = append(sr.bounds, i)
	}
	sr.sel = sr.sel[:0]
	counters := make([]int, sr.w.Shards)
	win, k := 0, sr.w.fixedK()
	for i := range pk {
		for win < len(sr.bounds) && i == sr.bounds[win] {
			win++
			if nk := sr.snaps[win].K; nk != 0 && nk != k {
				k = nk
				counters[0] = 0
			}
		}
		c := &counters[0]
		if sr.w.Adaptive == nil {
			c = &counters[sr.shardOf[i]]
		}
		if *c%k == 0 {
			sr.sel = append(sr.sel, int32(i))
		}
		*c++
	}
	return nil
}

// stageWire: snapshot to wire form, wire codec both ways, and the
// query-side merge.
func (sr *stageRunner) stageWire() error {
	n := sr.windows()
	ns, err := sr.timed("pipeline.wire", func() ([]int64, error) {
		sr.wires = sr.wires[:0]
		t0 := time.Now()
		for _, s := range sr.snaps {
			sr.wires = append(sr.wires, s.Wire(nodeName))
		}
		return []int64{time.Since(t0).Nanoseconds()}, nil
	})
	if err != nil {
		return err
	}
	sr.set("pipeline.wire_us_per_window", ns[0]/n/1e3)

	var payloads [][]byte
	ns, err = sr.timed("collect.encode", func() ([]int64, error) {
		payloads = payloads[:0]
		t0 := time.Now()
		for _, w := range sr.wires {
			p, err := collect.EncodeSnapshot(w)
			if err != nil {
				return nil, err
			}
			payloads = append(payloads, p)
		}
		return []int64{time.Since(t0).Nanoseconds()}, nil
	})
	if err != nil {
		return err
	}
	sr.encodeTotalNS = ns[0]
	sr.set("collect.encode_us", ns[0]/n/1e3)
	var bytes int
	for _, p := range payloads {
		bytes += len(p)
	}
	sr.set("collect.frame_bytes", float64(bytes)/n)

	ns, err = sr.timed("collect.decode", func() ([]int64, error) {
		t0 := time.Now()
		for _, p := range payloads {
			if _, err := collect.DecodeSnapshot(p); err != nil {
				return nil, err
			}
		}
		return []int64{time.Since(t0).Nanoseconds()}, nil
	})
	if err != nil {
		return err
	}
	sr.set("collect.decode_us", ns[0]/n/1e3)

	ns, err = sr.timed("pipeline.merge_wire", func() ([]int64, error) {
		t0 := time.Now()
		_, err := pipeline.MergeWire(sr.wires, pipeline.DefaultTopKReport)
		return []int64{time.Since(t0).Nanoseconds()}, err
	})
	if err != nil {
		return err
	}
	sr.set("pipeline.merge_wire_ms", ns[0]/1e6)
	return nil
}

// eachWindow calls f with the selected-packet index range of every
// window in turn.
func (sr *stageRunner) eachWindow(f func(sel []int32)) {
	lo := 0
	for w := 0; w <= len(sr.bounds); w++ {
		end := sr.pkts
		if w < len(sr.bounds) {
			end = sr.bounds[w]
		}
		hi := lo
		for hi < len(sr.sel) && int(sr.sel[hi]) < end {
			hi++
		}
		f(sr.sel[lo:hi])
		lo = hi
	}
}

// stageSelected: what a shard does to each selected packet — sampler
// decision, two bin lookups, flow-table Add, top-K AddBytes — and what
// it does at each window boundary — Flush + CountFlows, Top + Reset.
func (sr *stageRunner) stageSelected() error {
	pk := sr.in.ref.Packets
	nsel := float64(len(sr.sel))
	k := sr.w.fixedK()

	ns, err := sr.timed("online.offer", func() ([]int64, error) {
		s, err := online.NewSystematic(k, 0)
		if err != nil {
			return nil, err
		}
		picked := 0
		t0 := time.Now()
		for i := range pk {
			if s.Offer(pk[i].Time) {
				picked++
			}
		}
		d := time.Since(t0).Nanoseconds()
		if picked == 0 {
			return nil, errors.New("sampler selected nothing")
		}
		return []int64{d}, nil
	})
	if err != nil {
		return err
	}
	sr.set("online.offer_ns_per_pkt", ns[0]/float64(sr.pkts))

	sizeScheme, iatScheme := bins.PacketSize(), bins.Interarrival()
	ns, err = sr.timed("bins.index", func() ([]int64, error) {
		var sink int
		t0 := time.Now()
		for _, i := range sr.sel {
			sink += sizeScheme.Index(float64(pk[i].Size))
			sink += iatScheme.IndexLinear(float64(sr.gaps[i]))
		}
		d := time.Since(t0).Nanoseconds()
		if sink < 0 {
			return nil, errors.New("negative bin index")
		}
		return []int64{d}, nil
	})
	if err != nil {
		return err
	}
	sr.set("bins.index_ns_per_sel", ns[0]/nsel)

	var inserts, peak int
	ns, err = sr.timed("flows", func() ([]int64, error) {
		tabs := make([]*flows.Table, sr.w.Shards)
		for s := range tabs {
			var err error
			if tabs[s], err = flows.NewTable(pipeline.DefaultFlowTimeoutUS); err != nil {
				return nil, err
			}
		}
		inserts, peak = 0, 0
		var addNS, flushNS int64
		sr.eachWindow(func(sel []int32) {
			t0 := time.Now()
			for _, i := range sel {
				tabs[sr.shardOf[i]].Add(pk[i])
			}
			t1 := time.Now()
			active := 0
			for _, tab := range tabs {
				active += tab.ActiveCount()
			}
			t2 := time.Now()
			for _, tab := range tabs {
				inserts += int(flows.CountFlows(tab.Flush()).Flows)
			}
			addNS += t1.Sub(t0).Nanoseconds()
			flushNS += time.Since(t2).Nanoseconds()
			if active > peak {
				peak = active
			}
		})
		return []int64{addNS, flushNS}, nil
	})
	if err != nil {
		return err
	}
	sr.set("flows.add_ns_per_sel", ns[0]/nsel)
	sr.set("flows.flush_us_per_window", ns[1]/sr.windows()/1e3)
	sr.set("flows.new_flow_frac", float64(inserts)/nsel)
	sr.set("flows.peak_active", float64(peak))

	ns, err = sr.timed("nnstat", func() ([]int64, error) {
		sketches := make([]*nnstat.TopK, sr.w.Shards)
		for s := range sketches {
			var err error
			if sketches[s], err = nnstat.NewTopK(pipeline.DefaultTopKCapacity); err != nil {
				return nil, err
			}
		}
		var key [13]byte
		var addNS, topNS int64
		sr.eachWindow(func(sel []int32) {
			t0 := time.Now()
			for _, i := range sel {
				p := &pk[i]
				copy(key[0:4], p.Src[:])
				copy(key[4:8], p.Dst[:])
				key[8], key[9] = byte(p.SrcPort), byte(p.SrcPort>>8)
				key[10], key[11] = byte(p.DstPort), byte(p.DstPort>>8)
				key[12] = byte(p.Protocol)
				sketches[sr.shardOf[i]].AddBytes(key[:], 1)
			}
			t1 := time.Now()
			for _, sk := range sketches {
				sk.Top(pipeline.DefaultTopKReport)
				sk.Reset()
			}
			addNS += t1.Sub(t0).Nanoseconds()
			topNS += time.Since(t1).Nanoseconds()
		})
		return []int64{addNS, topNS}, nil
	})
	if err != nil {
		return err
	}
	sr.set("nnstat.add_ns_per_sel", ns[0]/nsel)
	sr.set("nnstat.top_us_per_window", ns[1]/sr.windows()/1e3)
	return nil
}

// stageScore: both reference evaluators over every window's counts.
func (sr *stageRunner) stageScore() error {
	ns, err := sr.timed("core.score_counts", func() ([]int64, error) {
		t0 := time.Now()
		for _, s := range sr.snaps {
			if s.Selected == 0 {
				continue // an empty window is unscored in the pipeline too
			}
			if _, err := sr.in.sizeEval.ScoreCounts(s.SizeCounts); err != nil {
				return nil, err
			}
			if sum(s.IatCounts) > 0 {
				if _, err := sr.in.iatEval.ScoreCounts(s.IatCounts); err != nil {
					return nil, err
				}
			}
		}
		return []int64{time.Since(t0).Nanoseconds()}, nil
	})
	if err != nil {
		return err
	}
	sr.set("core.score_counts_us", ns[0]/sr.windows()/1e3)
	return nil
}

// stageStore: the write path under default options (append per window,
// then Close), explicit Sync, and the cold read path over what was
// written. One pass: every append here is an fsync candidate.
func (sr *stageRunner) stageStore() error {
	id := sr.tr.begin("stage:store", noSpan, -1)
	defer sr.tr.end(id)
	dir, err := os.MkdirTemp(sr.tmp, "stage-store-")
	if err != nil {
		return harnessErr("stage store temp dir", err)
	}
	defer os.RemoveAll(dir)
	sw, err := store.Open(dir, store.Options{})
	if err != nil {
		return harnessErr("stage store open", err)
	}
	appendUS := make([]float64, 0, len(sr.wires))
	for _, w := range sr.wires {
		t0 := time.Now()
		if err := sw.AppendSnapshot(w); err != nil {
			return fmt.Errorf("stage store.append: %w", err)
		}
		appendUS = append(appendUS, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	t0 := time.Now()
	if err := sw.Close(); err != nil {
		return fmt.Errorf("stage store.close: %w", err)
	}
	sr.set("store.close_ms", float64(time.Since(t0).Nanoseconds())/1e6)
	sr.appendTotalNS = sum(appendUS) * 1e3
	sr.set("store.append_us_p50", percentile(appendUS, 50))
	sr.set("store.append_us_p99", percentile(appendUS, 99))

	var size int64
	err = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			size += info.Size()
		}
		return err
	})
	if err != nil {
		return harnessErr("stage store size", err)
	}
	sr.set("store.bytes_per_window", float64(size)/sr.windows())

	t0 = time.Now()
	if err := store.Verify(dir); err != nil {
		return fmt.Errorf("stage store.verify: %w", err)
	}
	sr.set("store.verify_ms", float64(time.Since(t0).Nanoseconds())/1e6)
	t0 = time.Now()
	r, err := store.OpenReader(dir)
	if err != nil {
		return fmt.Errorf("stage store.open_reader: %w", err)
	}
	sr.set("store.open_reader_ms", float64(time.Since(t0).Nanoseconds())/1e6)
	t0 = time.Now()
	recs, err := r.Snapshots(math.MinInt64, math.MaxInt64)
	if err != nil || len(recs) != len(sr.wires) {
		return fmt.Errorf("stage store.replay: %d of %d records: %v", len(recs), len(sr.wires), err)
	}
	sr.set("store.replay_us_per_rec", float64(time.Since(t0).Nanoseconds())/1e3/float64(len(recs)))

	// Explicit Sync: group commit switched off, so each timed Sync
	// flushes and fsyncs exactly one record.
	sdir, err := os.MkdirTemp(sr.tmp, "stage-sync-")
	if err != nil {
		return harnessErr("stage sync temp dir", err)
	}
	defer os.RemoveAll(sdir)
	sw, err = store.Open(sdir, store.Options{SyncEvery: syncCount + 1, SyncWindowUS: -1})
	if err != nil {
		return harnessErr("stage sync open", err)
	}
	syncUS := make([]float64, 0, syncCount)
	for i := 0; i < syncCount; i++ {
		if err := sw.AppendSnapshot(sr.wires[i%len(sr.wires)]); err != nil {
			return fmt.Errorf("stage store.sync append: %w", err)
		}
		t0 := time.Now()
		if err := sw.Sync(); err != nil {
			return fmt.Errorf("stage store.sync: %w", err)
		}
		syncUS = append(syncUS, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	if err := sw.Close(); err != nil {
		return fmt.Errorf("stage store.sync close: %w", err)
	}
	sr.set("store.sync_us_p50", percentile(syncUS, 50))
	return nil
}

// stagePoll: the collection plane. An Agent serves the cut run's
// latest snapshot through pipeline.NewExporter on loopback; one
// Collector polls it closed-loop (the public API dials per poll).
func (sr *stageRunner) stagePoll() error {
	id := sr.tr.begin("stage:collect.poll", noSpan, -1)
	defer sr.tr.end(id)
	agent := collect.NewAgent(nodeName, arts.T3)
	agent.Snapshots = pipeline.NewExporter(sr.cutP, nodeName)
	addr, err := agent.Serve("127.0.0.1:0")
	if err != nil {
		return harnessErr("listen on loopback", err)
	}
	c := collect.NewCollector()
	pollUS := make([]float64, 0, pollCount)
	var pollErr error
	for i := 0; i < pollCount; i++ {
		t0 := time.Now()
		if _, err := c.PollSnapshot(addr.String()); err != nil {
			pollErr = fmt.Errorf("stage collect.poll: %w", err)
			break
		}
		pollUS = append(pollUS, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	if err := agent.Close(); err != nil && pollErr == nil {
		pollErr = fmt.Errorf("stage collect.poll: close agent: %w", err)
	}
	if pollErr != nil {
		return pollErr
	}
	sr.set("collect.poll_us_p50", percentile(pollUS, 50))
	sr.set("collect.poll_us_p99", percentile(pollUS, 99))
	return nil
}

// runBatchStages measures the batch evaluator's layers on pop: the
// replication kernel and the per-artifact public functions the ROADMAP
// names as allocation-heavy.
func (sr *stageRunner) runBatchStages(pop *trace.Trace) error {
	ev, err := core.NewEvaluator(pop, core.TargetSize, bins.PacketSize())
	if err != nil {
		return fmt.Errorf("stage core.replicate: %w", err)
	}
	var m0, m1 runtime.MemStats
	id := sr.tr.begin("stage:core.replicate", noSpan, -1)
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	_, err = core.Replicate(ev, core.SystematicCount{K: 50}, replicateReps, dist.NewRNG(1993))
	d := time.Since(t0).Nanoseconds()
	runtime.ReadMemStats(&m1)
	sr.tr.end(id)
	if err != nil {
		return fmt.Errorf("stage core.replicate: %w", err)
	}
	sr.set("core.replicate_ns_per_pkt", float64(d)/float64(pop.Len())/replicateReps)
	sr.set("core.replicate_allocs", float64(m1.Mallocs-m0.Mallocs))

	artifacts := []struct {
		metric string
		run    func() error
	}{
		{"experiment.figure1_ms", func() error { _, err := experiment.Figure1(30, 20, 800); return err }},
		{"experiment.figure8_ms", func() error { _, err := experiment.Figure8(pop); return err }},
		{"experiment.figure9_ms", func() error { _, err := experiment.Figure9(pop); return err }},
		{"experiment.ext_matrix_ms", func() error { _, err := experiment.ExtMatrix(pop); return err }},
		{"experiment.ext_heavyhitters_ms", func() error { _, err := experiment.HeavyHitters(pop); return err }},
		{"experiment.ext_flows_ms", func() error { _, err := experiment.FlowBias(pop); return err }},
	}
	for _, a := range artifacts {
		id := sr.tr.begin("stage:"+a.metric, noSpan, -1)
		t0 := time.Now()
		err := a.run()
		d := time.Since(t0).Nanoseconds()
		sr.tr.end(id)
		if err != nil {
			return fmt.Errorf("stage %s: %w", a.metric, err)
		}
		sr.set(a.metric, float64(d)/1e6)
	}
	return nil
}
