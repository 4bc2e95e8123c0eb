package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// benchmarkJSON mirrors BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// TestBenchmarkJSONMatchesCatalogue pins BENCHMARK.json to the
// harness: the six workloads with their reasons, every gated metric
// under end_to_end with the catalogue's unit, direction and bound,
// every other metric under per_layer, and the contract's own limits on
// names, units and lengths.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}

	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, harness has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, harness %q / %q",
				i, b.Workloads[i].Name, b.Workloads[i].Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}

	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	var gated, rest []metricDef
	for _, m := range catalogue {
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) {
			t.Errorf("catalogue: %q (%q) breaks the contract's name or unit rule", m.Name, m.Unit)
		}
		if m.Class == classGated {
			gated = append(gated, m)
		} else {
			rest = append(rest, m)
		}
	}
	check := func(section string, got []benchMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, catalogue has %d", section, len(got), len(want))
			return
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better {
				t.Errorf("%s[%d]: BENCHMARK.json has %s/%s/%s, catalogue %s/%s/%s",
					section, i, g.Name, g.Unit, g.Better, m.Name, m.Unit, m.Better)
			}
			switch {
			case bounded && (g.Bound == nil || !near(*g.Bound, m.Bound)):
				t.Errorf("%s: %s bound differs from the catalogue's %v", section, m.Name, m.Bound)
			case bounded && (m.Bound <= 0 || m.Bound > 0.25):
				t.Errorf("%s: %s bound %v outside (0, 0.25]", section, m.Name, m.Bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s: %s carries a bound; per-layer metrics have none", section, m.Name)
			}
		}
	}
	check("end_to_end", b.EndToEnd, gated, true)
	check("per_layer", b.PerLayer, rest, false)
	if len(b.PerLayer) > 128 || len(b.EndToEnd) > 16 {
		t.Errorf("%d end-to-end and %d per-layer metrics exceed the contract's 16 and 128", len(b.EndToEnd), len(b.PerLayer))
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", b.RunSeconds)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "benchmarks" {
		t.Errorf("paths = %v, want [benchmarks]", b.Paths)
	}
}
