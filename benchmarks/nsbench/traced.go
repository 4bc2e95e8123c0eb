package main

import (
	"errors"
	"fmt"
	"time"
)

// runTraced is the per-layer run of one workload. It measures the
// workload's own laps both ways — tracing off and on, so the difference
// is the tracing overhead and the untraced laps anchor the ledger — and
// then replays the workload's input through every layer's public
// calls in isolation.
//
// Every layer is measured on every workload, on its path or not: the
// streaming stages run on paper-suite's hour under backbone-k50's
// configuration (a shadow; see workload.Batch), and the batch stages
// run on the first two minutes of a streaming workload's trace. The
// ledger sums only the rows on the streaming path.
func runTraced(res *result, w workload, in *input, tmp string, o runOpts, budget time.Duration) error {
	tr := newTracer()
	var un, tm float64 // median lap ms of the workload's own laps, untraced and traced

	if w.Batch {
		first := prepareSuite(res, in, o.seed)
		if first == nil {
			return nil
		}
		var s, ts suiteSamples
		for n := 0; n < minTracedLaps; n++ {
			measureIter(res, nil, in, o.seed, first, &s)
			measureIter(res, tr, in, o.seed, first, &ts)
		}
		if !res.timingValid() {
			return nil
		}
		res.setSuite(s)
		res.setSamples("experiment.suite_allocs", ts.suiteAllocs)
		res.setSamples("experiment.matrix_allocs", ts.matrixAllocs)
		un, tm = summarize(s.runMS).Median, summarize(ts.runMS).Median
		budget = 0 // the shadow laps below take their minimum count only
	}

	env := newStreamEnv(w, in, tmp)
	verified, err := prepareStream(res, env)
	if err != nil || verified == nil {
		return err
	}
	// Untraced and traced laps alternate, so slow drift of the machine
	// lands on both sides of the overhead figure. Half the run's
	// seconds go to laps; the stage replay takes the rest.
	var s, ts streamSamples
	for n, start := 0, time.Now(); !spent(n, minTracedLaps, start, budget/2); n++ {
		if err := measureLap(res, nil, env, verified, &s); err != nil {
			return err
		}
		if n < tracedLaps {
			if err := measureLap(res, tr, env, verified, &ts); err != nil {
				return err
			}
		}
	}
	if !res.timingValid() {
		return nil
	}
	res.setStream(s, !w.Batch)
	res.setSamples("pipeline.allocs_per_pkt", ts.allocsPerPkt)
	res.setSamples("pipeline.gc_cycles_per_lap", ts.gcCycles)
	res.setSamples("pipeline.reader_push_frac", readerPushFracs(tr.snapshot()))
	if !w.Batch {
		un, tm = summarize(s.runMS).Median, summarize(ts.runMS).Median
	}
	res.setMetric("bench.trace_overhead_frac", (tm-un)/un, nil)

	sr := &stageRunner{w: w, in: in, tmp: tmp, tr: tr, res: res}
	res.setMetric("traffgen.generate_ms", float64(in.generateNS)/1e6, nil)
	res.setMetric("traffgen.pkts", float64(in.gen.Len()), nil)
	res.setMetric("trace.materialize_ms", float64(in.materializeNS)/1e6, nil)
	res.setMetric("core.new_evaluator_ms", float64(in.evaluatorNS)/1e6, nil)
	if err := sr.runStreamStages(); err != nil {
		return err
	}
	pop := in.gen
	if !w.Batch {
		pop = in.gen.Window(0, batchShadow.Microseconds())
		it := runSuiteIter(tr, -1, pop, o.seed)
		if len(it.Failures) > 0 {
			return errors.New("shadow suite iteration: " + it.Failures[0])
		}
		res.setMetric("suite_s", float64(it.SuiteNS)/1e9, nil)
		res.setMetric("matrix_s", float64(it.MatrixNS)/1e9, nil)
		res.setMetric("experiment.suite_allocs", float64(it.SuiteMallocs), nil)
		res.setMetric("experiment.matrix_allocs", float64(it.MatrixMallocs), nil)
	}
	if err := sr.runBatchStages(pop); err != nil {
		return err
	}

	e2e := 1e9 / summarize(s.pps).Median
	res.Ledger = sr.ledger(e2e)
	if err := writeSpans(o.spansPath(), w.Name, tr.snapshot()); err != nil {
		return harnessErr("write spans", err)
	}
	return nil
}

// readerPushFracs returns, per traced lap, the share of pipeline.Run's
// wall time spent outside source.NextRawBatch — the reader pushing
// units or blocked on a full ring.
func readerPushFracs(spans []span) []float64 {
	inSource := make(map[int32]int64)
	for _, s := range spans {
		if s.Name == "source.NextRawBatch" {
			inSource[s.Parent] += s.End - s.Start
		}
	}
	var out []float64
	for _, s := range spans {
		if s.Name == "pipeline.Run" && s.End > s.Start {
			out = append(out, 1-float64(inSource[s.ID])/float64(s.End-s.Start))
		}
	}
	return out
}

// ledger attributes the untraced end-to-end cost per packet to the
// layer calls on the streaming path, from the stage replay's rows. The
// rows are serial costs; the live pipeline overlaps them across its
// goroutines, so their sum can exceed the end-to-end figure and the
// residual — ring hand-off, sequencing, scheduling, minus that overlap
// — can be negative. It is stated, not interpreted.
func (sr *stageRunner) ledger(e2eNsPerPkt float64) []ledgerRow {
	m := sr.res.Metrics
	pkts := float64(sr.pkts)
	perPkt := func(name string) float64 { return m[name].Value }
	perSel := func(name string) float64 { return m[name].Value * m["pipeline.selected_frac"].Value }
	perWindowUS := func(name string) float64 { return m[name].Value * 1e3 * sr.windows() / pkts }

	rows := []ledgerRow{
		{"trace.read", perPkt("trace.read_ns_per_pkt")},
		{"pipeline.partition (DecodeBatch, includes trace.decode)", perPkt("pipeline.partition_ns_per_pkt")},
	}
	if sr.w.Adaptive == nil {
		// Under adaptive control selection rides each item from the
		// reader's schedule; no sampler is offered anything.
		rows = append(rows, ledgerRow{"online.offer", perPkt("online.offer_ns_per_pkt")})
	}
	storeAppend := (sr.appendTotalNS - sr.encodeTotalNS) / pkts
	if storeAppend < 0 {
		storeAppend = 0
	}
	rows = append(rows,
		ledgerRow{"bins.index", perSel("bins.index_ns_per_sel")},
		ledgerRow{"flows.add", perSel("flows.add_ns_per_sel")},
		ledgerRow{"nnstat.add", perSel("nnstat.add_ns_per_sel")},
		ledgerRow{"flows.flush", perWindowUS("flows.flush_us_per_window")},
		ledgerRow{"nnstat.top", perWindowUS("nnstat.top_us_per_window")},
		ledgerRow{"core.score_counts", perWindowUS("core.score_counts_us")},
		ledgerRow{"pipeline.wire", perWindowUS("pipeline.wire_us_per_window")},
		ledgerRow{"collect.encode", perWindowUS("collect.encode_us")},
		ledgerRow{"store.append (net of encode)", storeAppend},
		ledgerRow{"store.close", m["store.close_ms"].Value * 1e6 / pkts},
	)
	var total float64
	for _, r := range rows {
		total += r.NsPerPkt
	}
	sr.set("bench.ledger_sum_ns_per_pkt", total)
	sr.set("pipeline.residual_ns_per_pkt", e2eNsPerPkt-total)
	return append(rows,
		ledgerRow{"sum of rows (bench.ledger_sum_ns_per_pkt)", total},
		ledgerRow{"residual (pipeline.residual_ns_per_pkt)", e2eNsPerPkt - total},
		ledgerRow{"end to end, untraced", e2eNsPerPkt},
	)
}

// ledgerMarkdown renders one workload's ledger as a table.
func ledgerMarkdown(r *result) string {
	if len(r.Ledger) == 0 {
		return ""
	}
	e2e := r.Ledger[len(r.Ledger)-1].NsPerPkt
	out := fmt.Sprintf("## %s\n\n", r.Workload)
	if w, _ := findWorkload(r.Workload); w.Batch {
		out += "Shadow ledger: this workload's own laps are batch suite iterations; the rows below are its input streamed under backbone-k50's configuration.\n\n"
	}
	out += "| row | ns/pkt | share of end to end |\n|---|---:|---:|\n"
	for _, row := range r.Ledger {
		out += fmt.Sprintf("| %s | %.2f | %.1f %% |\n", row.Row, row.NsPerPkt, 100*row.NsPerPkt/e2e)
	}
	out += "\nCross-checks (not summed):\n\n"
	for _, name := range []string{
		"pipeline.bare_ns_per_pkt", "pipeline.cut_us_per_window", "pipeline.reader_push_frac",
		"bench.trace_overhead_frac", "pipeline.selected_frac", "pipeline.windows_per_lap", "flows.new_flow_frac",
	} {
		if m, ok := r.Metrics[name]; ok {
			out += fmt.Sprintf("- `%s` = %.4g %s\n", name, m.Value, m.Unit)
		}
	}
	return out + "\n"
}
