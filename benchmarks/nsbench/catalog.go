package main

// harnessVersion names this harness's measurement protocol. Bump it
// whenever a change makes new numbers incomparable with old ones (lap
// protocol, metric definitions, workload inputs); -compare refuses to
// mix versions.
const harnessVersion = "nsbench/1"

// Metric classes. A gated metric is an end_to_end entry of
// BENCHMARK.json: reported by every workload on every untraced run and
// held to its bound by the driver. A demoted metric is end-to-end in
// meaning but is not defined on every workload (or is not steady on
// all of them), so BENCHMARK.json carries it under per_layer, without a
// driver-enforced bound; -compare still applies the bound below. Layer
// metrics come from the traced run.
const (
	classGated   = "gated"
	classDemoted = "demoted"
	classLayer   = "layer"
)

// metricDef is one row of the metric catalogue. The catalogue is the
// single source for names, units and directions: BENCHMARK.json is
// pinned to it by TestBenchmarkJSONMatchesCatalogue.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Class  string  // classGated, classDemoted, classLayer
	Bound  float64 // regression bound as a share of the parent's median; 0 for layer metrics
}

// catalogue lists every metric the harness reports, in report order.
var catalogue = []metricDef{
	// End to end, gated: defined on all six workloads and steady enough
	// on all six to carry a driver-enforced bound. allocs_per_pkt is
	// heap allocations (MemStats.Mallocs) from Run start to Close
	// returning per trace packet; it repeats to four digits on a machine
	// whose lap times repeat to one.
	{"setup_s", "s", "lower", classGated, 0.25},
	{"allocs_per_pkt", "1/pkt", "lower", classGated, 0.25},
	{"peak_rss_mb", "MB", "lower", classGated, 0.15},

	// End to end, demoted to per_layer in BENCHMARK.json. No wall-clock
	// (or CPU-time) figure agreed within any allowed bound between two
	// ten-run passes on fine-windows, whose lap is 3 600 fsyncs on a
	// disk that changes pace by the quarter hour (1.78 M against
	// 2.56 M pkts/s; process CPU time 468 against 281 ns/pkt). The
	// other four are also undefined on
	// at least one workload's own path (no windows in paper-suite, no
	// suite in a streaming run), and the driver wants every end_to_end
	// metric from every workload.
	{"pkts_per_s", "pkts/s", "higher", classDemoted, 0.08},
	{"cut_latency_ms_p50", "ms", "lower", classDemoted, 0.10},
	{"query_ms", "ms", "lower", classDemoted, 0.15},
	{"suite_s", "s", "lower", classDemoted, 0.05},
	{"matrix_s", "s", "lower", classDemoted, 0.10},

	// Per layer (layer = module name).
	{"trace.read_ns_per_pkt", "ns/pkt", "lower", classLayer, 0},
	{"trace.decode_ns_per_pkt", "ns/pkt", "lower", classLayer, 0},
	{"trace.materialize_ms", "ms", "lower", classLayer, 0},
	{"traffgen.generate_ms", "ms", "lower", classLayer, 0},
	{"traffgen.pkts", "count", "higher", classLayer, 0},
	{"core.new_evaluator_ms", "ms", "lower", classLayer, 0},
	{"pipeline.partition_ns_per_pkt", "ns/pkt", "lower", classLayer, 0},
	{"pipeline.bare_ns_per_pkt", "ns/pkt", "lower", classLayer, 0},
	{"pipeline.cut_us_per_window", "us", "lower", classLayer, 0},
	{"pipeline.wire_us_per_window", "us", "lower", classLayer, 0},
	{"collect.encode_us", "us", "lower", classLayer, 0},
	{"collect.decode_us", "us", "lower", classLayer, 0},
	{"collect.frame_bytes", "bytes", "lower", classLayer, 0},
	{"pipeline.merge_wire_ms", "ms", "lower", classLayer, 0},
	{"pipeline.reader_push_frac", "frac", "lower", classLayer, 0},
	{"pipeline.residual_ns_per_pkt", "ns/pkt", "lower", classLayer, 0},
	{"bench.ledger_sum_ns_per_pkt", "ns/pkt", "lower", classLayer, 0},
	{"pipeline.allocs_per_pkt", "1/pkt", "lower", classLayer, 0},
	{"pipeline.gc_cycles_per_lap", "count", "lower", classLayer, 0},
	{"pipeline.cut_latency_ms_p90", "ms", "lower", classLayer, 0},
	{"pipeline.cut_latency_ms_p99", "ms", "lower", classLayer, 0},
	{"pipeline.windows_per_lap", "count", "higher", classLayer, 0},
	{"pipeline.selected_frac", "frac", "higher", classLayer, 0},
	{"pipeline.mean_k", "count", "lower", classLayer, 0},
	{"pipeline.decisions_per_lap", "count", "higher", classLayer, 0},
	{"online.offer_ns_per_pkt", "ns/pkt", "lower", classLayer, 0},
	{"bins.index_ns_per_sel", "ns/sel", "lower", classLayer, 0},
	{"flows.add_ns_per_sel", "ns/sel", "lower", classLayer, 0},
	{"flows.new_flow_frac", "frac", "lower", classLayer, 0},
	{"flows.peak_active", "count", "lower", classLayer, 0},
	{"flows.flush_us_per_window", "us", "lower", classLayer, 0},
	{"nnstat.add_ns_per_sel", "ns/sel", "lower", classLayer, 0},
	{"nnstat.top_us_per_window", "us", "lower", classLayer, 0},
	{"core.score_counts_us", "us", "lower", classLayer, 0},
	{"store.append_us_p50", "us", "lower", classLayer, 0},
	{"store.append_us_p99", "us", "lower", classLayer, 0},
	{"store.sync_us_p50", "us", "lower", classLayer, 0},
	{"store.close_ms", "ms", "lower", classLayer, 0},
	{"store.bytes_per_window", "bytes", "lower", classLayer, 0},
	{"store.verify_ms", "ms", "lower", classLayer, 0},
	{"store.open_reader_ms", "ms", "lower", classLayer, 0},
	{"store.replay_us_per_rec", "us", "lower", classLayer, 0},
	{"collect.poll_us_p50", "us", "lower", classLayer, 0},
	{"collect.poll_us_p99", "us", "lower", classLayer, 0},
	{"core.replicate_ns_per_pkt", "ns/pkt", "lower", classLayer, 0},
	{"core.replicate_allocs", "count", "lower", classLayer, 0},
	{"experiment.figure1_ms", "ms", "lower", classLayer, 0},
	{"experiment.figure8_ms", "ms", "lower", classLayer, 0},
	{"experiment.figure9_ms", "ms", "lower", classLayer, 0},
	{"experiment.ext_matrix_ms", "ms", "lower", classLayer, 0},
	{"experiment.ext_heavyhitters_ms", "ms", "lower", classLayer, 0},
	{"experiment.ext_flows_ms", "ms", "lower", classLayer, 0},
	{"experiment.suite_allocs", "count", "lower", classLayer, 0},
	{"experiment.matrix_allocs", "count", "lower", classLayer, 0},
	{"bench.trace_overhead_frac", "frac", "lower", classLayer, 0},
}

// lookupMetric returns the catalogue row for name.
func lookupMetric(name string) (metricDef, bool) {
	for _, m := range catalogue {
		if m.Name == name {
			return m, true
		}
	}
	return metricDef{}, false
}

// driverMetrics lists the metric names the driver's result line must
// carry: the gated set for an untraced run, everything else for a
// traced one.
func driverMetrics(traced bool) []string {
	var out []string
	for _, m := range catalogue {
		if (m.Class == classGated) != traced {
			out = append(out, m.Name)
		}
	}
	return out
}
