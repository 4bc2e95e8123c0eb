package main

import (
	"bytes"
	"encoding/json"
	"math"
	"path/filepath"
	"strings"
	"testing"
)

// TestUntracedRunReportsTheGatedMetrics drives a whole untraced run of
// the small fixture and checks the contract line: every gated metric,
// nothing else, counts that add up.
func TestUntracedRunReportsTheGatedMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-run smoke skipped in -short mode")
	}
	res, err := smallWorkload().run(runOpts{workload: "test-small", seed: 7, seconds: 1, tmp: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if !res.timingValid() || res.FailedOps != 0 || res.MeasuredLaps < minLaps {
		t.Fatalf("run not valid: %d/%d laps, failed_ops=%d", res.ValidLaps, res.MeasuredLaps, res.FailedOps)
	}
	if want := res.MeasuredLaps * 13; res.Ops != want {
		t.Errorf("ops = %d, want %d (12 windows + 1 query per lap)", res.Ops, want)
	}
	var buf bytes.Buffer
	if err := res.writeDriverLine(&buf); err != nil {
		t.Fatal(err)
	}
	var line driverLine
	if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
		t.Fatalf("driver line is not JSON: %v\n%s", err, buf.String())
	}
	if !line.Correct || line.Attempted != res.Ops || line.Failed != 0 {
		t.Errorf("driver line: %+v", line)
	}
	want := driverMetrics(false)
	if len(line.Metrics) != len(want) {
		t.Errorf("driver line carries %d metrics, want %d", len(line.Metrics), len(want))
	}
	for _, name := range want {
		if m, ok := line.Metrics[name]; !ok || !(m.Value > 0) {
			t.Errorf("driver line: %s = %+v", name, m)
		}
	}
}

// TestTracedRunLedgerAddsUp drives a whole traced run of the small
// fixture: every per-layer metric is reported, the ledger's rows plus
// the residual equal the untraced end-to-end figure, and the spans file
// holds well-formed spans whose self times are sane.
func TestTracedRunLedgerAddsUp(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-run smoke skipped in -short mode")
	}
	dir := t.TempDir()
	spans := filepath.Join(dir, "spans.json")
	res, err := smallWorkload().run(runOpts{workload: "test-small", seed: 7, seconds: 1, traced: true, tmp: dir, spans: spans})
	if err != nil {
		t.Fatal(err)
	}
	if !res.timingValid() {
		t.Fatalf("run not valid: %+v", res.Laps)
	}
	var buf bytes.Buffer
	if err := res.writeDriverLine(&buf); err != nil {
		t.Fatal(err)
	}
	for _, name := range driverMetrics(true) {
		m, ok := res.Metrics[name]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("traced run: %s = %+v", name, m)
		}
	}

	if len(res.Ledger) < 4 {
		t.Fatalf("ledger has %d rows", len(res.Ledger))
	}
	n := len(res.Ledger)
	total, residual, e2e := res.Ledger[n-3].NsPerPkt, res.Ledger[n-2].NsPerPkt, res.Ledger[n-1].NsPerPkt
	var rows float64
	for _, r := range res.Ledger[:n-3] {
		rows += r.NsPerPkt
	}
	if math.Abs(rows-total) > 1e-6 || math.Abs(total+residual-e2e) > 1e-6 {
		t.Errorf("ledger does not add up: rows %.3f, sum %.3f, residual %.3f, end to end %.3f", rows, total, residual, e2e)
	}
	if want := 1e9 / res.Metrics["pkts_per_s"].Value; math.Abs(e2e-want) > 1e-6 {
		t.Errorf("ledger end-to-end %.3f ns/pkt, untraced laps say %.3f", e2e, want)
	}
	if md := ledgerMarkdown(res); !strings.Contains(md, "residual") || !strings.Contains(md, "flows.add") {
		t.Errorf("ledger.md section is missing rows:\n%s", md)
	}

	var sf spanFile
	if err := readJSON(spans, &sf); err != nil {
		t.Fatal(err)
	}
	if len(sf.Spans) == 0 || sf.Workload != "test-small" {
		t.Fatalf("spans file: %d spans for %q", len(sf.Spans), sf.Workload)
	}
	self := selfTimes(sf.Spans)
	seen := make(map[string]bool)
	for i, s := range sf.Spans {
		seen[s.Name] = true
		if s.End < s.Start || self[i] < 0 || self[i] > s.End-s.Start {
			t.Fatalf("span %d (%s): [%d, %d] self %d", s.ID, s.Name, s.Start, s.End, self[i])
		}
		if s.Parent != noSpan && sf.Spans[s.Parent].Lap != s.Lap {
			t.Fatalf("span %d (%s) is in lap %d, its parent in lap %d", s.ID, s.Name, s.Lap, sf.Spans[s.Parent].Lap)
		}
	}
	for _, name := range []string{
		"lap", "pipeline.Run", "source.NextRawBatch", "OnSnapshot", "Snapshot.Wire", "store.AppendSnapshot",
		"store.Close", "query", "store.Verify", "store.OpenReader", "Reader.Snapshots", "pipeline.MergeWire",
		"stage:flows", "stage:store", "stage:collect.poll", "experiment.All",
	} {
		if !seen[name] {
			t.Errorf("no %q span recorded", name)
		}
	}
}

// TestSelfTimesUseTheUnionOfChildren pins the self-time rule on
// overlapping children: coverage is the union of the child intervals,
// clipped to the parent.
func TestSelfTimesUseTheUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: noSpan, Name: "run", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "read", Start: 10, End: 40},
		{ID: 2, Parent: 0, Name: "snap", Start: 30, End: 60},  // overlaps read by 10
		{ID: 3, Parent: 0, Name: "late", Start: 90, End: 120}, // runs past the parent
		{ID: 4, Parent: 2, Name: "wire", Start: 35, End: 45},
	}
	want := []int64{100 - (50 + 10), 30, 30 - 10, 30, 10}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d (%s): self = %d, want %d", i, spans[i].Name, got[i], want[i])
		}
	}
}
