package main

import (
	"errors"
	"path/filepath"
	"testing"
)

// syntheticSet builds a one-workload result set whose throughput is
// pps and whose memory high-water mark is rss, each with a tight
// lap-to-lap spread.
func syntheticSet(pps, rss float64) *resultsFile {
	laps := []float64{pps * 0.99, pps * 0.995, pps, pps * 1.005, pps * 1.01}
	res := &result{Workload: "backbone-k50", Metrics: map[string]metricValue{}, MeasuredLaps: 5, ValidLaps: 5, Ops: 25}
	res.setSamples("pkts_per_s", laps)
	res.setSamples("setup_s", []float64{0.5, 0.5, 0.5})
	res.setMetric("peak_rss_mb", rss, nil)
	return &resultsFile{
		Harness:   harnessVersion,
		Cohort:    cohort{Harness: harnessVersion, GoVersion: "go1.24.0", CPUModel: "test", NumCPU: 2, GOMAXPROCS: 2, Seed: 1993, Seconds: 10},
		Workloads: []workloadSet{{Name: "backbone-k50", E2E: res}},
	}
}

func verdictOf(t *testing.T, rows []compareRow, metric string) compareRow {
	t.Helper()
	for _, r := range rows {
		if r.Metric == metric {
			return r
		}
	}
	t.Fatalf("no row for %s in %+v", metric, rows)
	return compareRow{}
}

func TestCompareFlagsARegression(t *testing.T) {
	parent := syntheticSet(40e6, 200)

	// 12 % less throughput against an 8 % bound, 20 % more memory against
	// a 15 % one.
	rows, err := compareSets(parent, syntheticSet(40e6*0.88, 200*1.20))
	if err != nil {
		t.Fatal(err)
	}
	if r := verdictOf(t, rows, "pkts_per_s"); r.Verdict != verdictWorse || r.Delta < 0.119 || r.Delta > 0.121 {
		t.Errorf("12 %% throughput drop judged %q (delta %.3f), want worse", r.Verdict, r.Delta)
	}
	if r := verdictOf(t, rows, "peak_rss_mb"); r.Verdict != verdictWorse || r.Delta < 0.199 || r.Delta > 0.201 {
		t.Errorf("20 %% memory growth judged %q (delta %.3f), want worse", r.Verdict, r.Delta)
	}
	if r := verdictOf(t, rows, "setup_s"); r.Verdict != verdictWithin {
		t.Errorf("unchanged setup_s judged %q, want within", r.Verdict)
	}

	rows, err = compareSets(parent, syntheticSet(40e6*1.15, 200*0.80))
	if err != nil {
		t.Fatal(err)
	}
	if r := verdictOf(t, rows, "pkts_per_s"); r.Verdict != verdictBetter {
		t.Errorf("15 %% throughput gain judged %q, want better", r.Verdict)
	}
	if r := verdictOf(t, rows, "peak_rss_mb"); r.Verdict != verdictBetter {
		t.Errorf("20 %% less memory judged %q, want better", r.Verdict)
	}

	rows, err = compareSets(parent, syntheticSet(40e6*0.95, 200*1.05))
	if err != nil {
		t.Fatal(err)
	}
	if r := verdictOf(t, rows, "pkts_per_s"); r.Verdict != verdictWithin {
		t.Errorf("5 %% drop under an 8 %% bound judged %q, want within", r.Verdict)
	}
	if r := verdictOf(t, rows, "peak_rss_mb"); r.Verdict != verdictWithin {
		t.Errorf("5 %% memory growth under a 15 %% bound judged %q, want within", r.Verdict)
	}
}

func TestCompareUnresolvedWhenParentIsNoisy(t *testing.T) {
	noisy := syntheticSet(40e6, 200)
	noisy.Workloads[0].E2E.setSamples("pkts_per_s", []float64{25e6, 32e6, 40e6, 48e6, 55e6})
	rows, err := compareSets(noisy, syntheticSet(40e6*0.88, 200))
	if err != nil {
		t.Fatal(err)
	}
	if r := verdictOf(t, rows, "pkts_per_s"); r.Verdict != verdictUnresolved {
		t.Errorf("drop against a parent whose own spread exceeds the bound judged %q, want unresolved", r.Verdict)
	}
}

// TestCompareWantsEnoughCutSamples: a median cut latency resting on a
// few hundred cuts is not compared, however large the difference.
func TestCompareWantsEnoughCutSamples(t *testing.T) {
	withCuts := func(ms float64, n int) *resultsFile {
		set := syntheticSet(40e6, 200)
		cuts := make([]float64, n)
		for i := range cuts {
			cuts[i] = ms
		}
		set.Workloads[0].E2E.setSamples("cut_latency_ms_p50", cuts)
		return set
	}
	rows, err := compareSets(withCuts(1.0, 300), withCuts(2.0, 300))
	if err != nil {
		t.Fatal(err)
	}
	if r := verdictOf(t, rows, "cut_latency_ms_p50"); r.Verdict != verdictUnresolved {
		t.Errorf("300-sample cut latency judged %q, want unresolved", r.Verdict)
	}
	rows, err = compareSets(withCuts(1.0, 1200), withCuts(2.0, 1200))
	if err != nil {
		t.Fatal(err)
	}
	if r := verdictOf(t, rows, "cut_latency_ms_p50"); r.Verdict != verdictWorse {
		t.Errorf("doubled cut latency on 1200 samples judged %q, want worse", r.Verdict)
	}
}

func TestCompareRefusesMixedCohorts(t *testing.T) {
	a, b := syntheticSet(40e6, 200), syntheticSet(40e6, 200)
	b.Cohort.GoVersion = "go1.25.0"
	if _, err := compareSets(a, b); !errors.Is(err, errMixedCohorts) {
		t.Errorf("mixed go versions: err = %v, want errMixedCohorts", err)
	}
	b = syntheticSet(40e6, 200)
	b.Cohort.GOMAXPROCS = 4
	if _, err := compareSets(a, b); !errors.Is(err, errMixedCohorts) {
		t.Errorf("mixed GOMAXPROCS: err = %v, want errMixedCohorts", err)
	}
	// The commit under test is what a comparison is about, not part of
	// the cohort.
	b = syntheticSet(40e6, 200)
	b.Cohort.Commit = "abc123"
	if _, err := compareSets(a, b); err != nil {
		t.Errorf("different commits refused: %v", err)
	}
}

// TestCheckedInBaselineIsValid keeps benchmarks/baseline honest: both
// sets pass -validate-only against today's catalogue (rename a metric
// and the baseline must be re-recorded), and they are one cohort, so
// -compare accepts the pair.
func TestCheckedInBaselineIsValid(t *testing.T) {
	var sets [2]resultsFile
	for i, name := range []string{"set1", "set2"} {
		dir := filepath.Join("..", "baseline", name)
		if err := validateFolder(dir); err != nil {
			t.Fatal(err)
		}
		if err := readJSON(filepath.Join(dir, "results.json"), &sets[i]); err != nil {
			t.Fatal(err)
		}
	}
	rows, err := compareSets(&sets[0], &sets[1])
	if err != nil {
		t.Fatalf("baseline sets do not compare: %v", err)
	}
	if len(rows) == 0 {
		t.Error("baseline comparison has no rows")
	}
}
