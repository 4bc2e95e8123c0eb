package main

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// resultsFile is results.json: one set — every workload run once
// untraced and once traced, each in a fresh child process.
type resultsFile struct {
	Harness   string        `json:"harness"`
	Cohort    cohort        `json:"cohort"`
	Workloads []workloadSet `json:"workloads"`
}

// workloadSet pairs a workload's two runs.
type workloadSet struct {
	Name   string  `json:"name"`
	E2E    *result `json:"end_to_end"`
	Layers *result `json:"per_layer"`
}

// runAll runs the whole benchmark into dir: results.json, spans/*.json,
// ledger.md, and each child's output under logs/. Any child that exits
// non-zero voids the set.
func runAll(dir, tmp string, seed uint64, seconds int) error {
	for _, sub := range []string{"", "spans", "logs"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return harnessErr("output folder", err)
		}
	}
	self, err := os.Executable()
	if err != nil {
		return harnessErr("locate own binary", err)
	}
	file := resultsFile{Harness: harnessVersion, Cohort: stampCohort(seed, seconds)}
	for _, w := range workloads {
		set := workloadSet{Name: w.Name}
		for _, traced := range []bool{false, true} {
			kind := "e2e"
			if traced {
				kind = "layers"
			}
			raw := filepath.Join(dir, "logs", w.Name+"."+kind+".json")
			args := []string{
				"-workload", w.Name, "-seed", strconv.FormatUint(seed, 10),
				"-seconds", strconv.Itoa(seconds), "-tmp", tmp, "-json", raw,
			}
			if traced {
				args = append(args, "-trace", "1", "-spans", filepath.Join(dir, "spans", w.Name+".json"))
			}
			fmt.Fprintf(os.Stderr, "nsbench: %s (%s)\n", w.Name, kind)
			log, err := exec.Command(self, args...).CombinedOutput()
			if werr := os.WriteFile(filepath.Join(dir, "logs", w.Name+"."+kind+".log"), log, 0o644); werr != nil {
				return harnessErr("write child log", werr)
			}
			if err != nil {
				return fmt.Errorf("%s (%s) is void: %v\n%s", w.Name, kind, err, lastLines(string(log), 6))
			}
			var res result
			if err := readJSON(raw, &res); err != nil {
				return harnessErr("read child result", err)
			}
			if traced {
				set.Layers = &res
			} else {
				set.E2E = &res
			}
		}
		file.Workloads = append(file.Workloads, set)
	}
	if err := writeJSON(filepath.Join(dir, "results.json"), file); err != nil {
		return harnessErr("write results.json", err)
	}
	var md strings.Builder
	md.WriteString("# nsbench cost ledger\n\nStage-replay rows (serial cost of each layer's public calls on the workload's input) " +
		"against the untraced end-to-end ns/pkt of the same traced run. Rows plus the residual equal the end-to-end figure; " +
		"see benchmarks/README.md for how to read it.\n\n")
	for _, set := range file.Workloads {
		md.WriteString(ledgerMarkdown(set.Layers))
	}
	if err := os.WriteFile(filepath.Join(dir, "ledger.md"), []byte(md.String()), 0o644); err != nil {
		return harnessErr("write ledger.md", err)
	}
	return validateFolder(dir)
}

// lastLines returns the last n lines of s.
func lastLines(s string, n int) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, "\n")
}

// validateFolder re-checks an -all output folder without running
// anything: the files are there and parse, every workload is present
// once with both runs, every metric name is in the catalogue with the
// catalogue's unit, each run carries every metric its mode owes the
// driver, all runs share one cohort, and nothing failed a check.
func validateFolder(dir string) error {
	var file resultsFile
	if err := readJSON(filepath.Join(dir, "results.json"), &file); err != nil {
		return err
	}
	var problems []string
	bad := func(format string, args ...any) { problems = append(problems, fmt.Sprintf(format, args...)) }

	if file.Harness != harnessVersion {
		bad("results.json is from harness %q, this is %q", file.Harness, harnessVersion)
	}
	if len(file.Workloads) != len(workloads) {
		bad("%d workloads in results.json, want %d", len(file.Workloads), len(workloads))
	}
	for i, set := range file.Workloads {
		if i < len(workloads) && set.Name != workloads[i].Name {
			bad("workload %d is %q, want %q", i, set.Name, workloads[i].Name)
		}
		for _, run := range []struct {
			res    *result
			traced bool
		}{{set.E2E, false}, {set.Layers, true}} {
			r := run.res
			if r == nil {
				bad("%s: missing run (traced=%v)", set.Name, run.traced)
				continue
			}
			if r.Workload != set.Name || r.Traced != run.traced {
				bad("%s: run is labelled %s traced=%v", set.Name, r.Workload, r.Traced)
			}
			if r.Cohort.identity() != file.Cohort.identity() {
				bad("%s (traced=%v): cohort differs from the set's", set.Name, run.traced)
			}
			if r.FailedOps != 0 || !r.timingValid() {
				bad("%s (traced=%v): failed_ops=%d, %d of %d laps valid", set.Name, run.traced, r.FailedOps, r.ValidLaps, r.MeasuredLaps)
			}
			if r.Ops < 1 {
				bad("%s (traced=%v): no operations attempted", set.Name, run.traced)
			}
			for name, m := range r.Metrics {
				def, ok := lookupMetric(name)
				if !ok {
					bad("%s: metric %q is not in the catalogue", set.Name, name)
				} else if m.Unit != def.Unit {
					bad("%s: %s has unit %q, catalogue says %q", set.Name, name, m.Unit, def.Unit)
				}
			}
			for _, name := range driverMetrics(run.traced) {
				if _, ok := r.Metrics[name]; !ok {
					bad("%s (traced=%v): no %s", set.Name, run.traced, name)
				}
			}
		}
		if _, err := os.Stat(filepath.Join(dir, "spans", set.Name+".json")); err != nil {
			bad("%s: %v", set.Name, err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "ledger.md")); err != nil {
		bad("%v", err)
	}
	if len(problems) > 0 {
		return errors.New(dir + " is not a valid result folder:\n  " + strings.Join(problems, "\n  "))
	}
	return nil
}
