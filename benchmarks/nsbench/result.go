package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// cohort is the environment a number was measured in. Results from
// different cohorts are never compared or aggregated: -compare refuses
// them, -validate-only rejects a folder that mixes them.
type cohort struct {
	Harness    string `json:"harness"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Governor   string `json:"governor"`
	Kernel     string `json:"kernel"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds"`
	WarmupLaps int    `json:"warmup_laps"`
	// Commit identifies the code under test; it is recorded, not part
	// of the cohort identity — comparing two commits is the point.
	Commit string `json:"commit"`
}

// stampCohort reads the environment. Anything unreadable is stamped
// "unknown" rather than left out, so two unknowns still compare equal
// on one machine and differ from any known value.
func stampCohort(seed uint64, seconds int) cohort {
	return cohort{
		Harness:    harnessVersion,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Governor:   readTrimmed("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor"),
		Kernel:     readTrimmed("/proc/sys/kernel/osrelease"),
		Seed:       seed,
		Seconds:    seconds,
		WarmupLaps: warmupLaps,
		Commit:     gitCommit(),
	}
}

// identity is the cohort with the fields that may differ between
// comparable results blanked.
func (c cohort) identity() cohort {
	c.Commit = ""
	return c
}

func readTrimmed(path string) string {
	data, err := os.ReadFile(path)
	if err != nil || len(bytes.TrimSpace(data)) == 0 {
		return "unknown"
	}
	return string(bytes.TrimSpace(data))
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}

// gitCommit asks git for HEAD; a checkout that is not a repository (the
// driver's) is "unknown".
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// metricValue is one reported metric: the value (a median wherever the
// run took more than one sample), its unit, and the distribution of
// the samples behind it.
type metricValue struct {
	Value float64  `json:"value"`
	Unit  string   `json:"unit"`
	Dist  *summary `json:"dist,omitempty"`
}

// Lap states. CHECK_FAILED laps count in failed_ops; a HARNESS_ERROR
// never produces a lap record — the run is void.
const (
	lapValid       = "VALID"
	lapCheckFailed = "CHECK_FAILED"
)

// lapRecord is the audit trail of one measured lap.
type lapRecord struct {
	Lap     int      `json:"lap"`
	State   string   `json:"state"`
	RunMS   float64  `json:"run_ms"`
	QueryMS float64  `json:"query_ms,omitempty"`
	Ops     int      `json:"ops"`
	Failed  int      `json:"failed_ops"`
	Why     []string `json:"why,omitempty"`
}

// ledgerRow is one line of the cost ledger: nanoseconds per trace
// packet attributed to one layer call.
type ledgerRow struct {
	Row      string  `json:"row"`
	NsPerPkt float64 `json:"ns_per_pkt"`
}

// result is everything one run of one workload reports.
type result struct {
	Workload string `json:"workload"`
	Traced   bool   `json:"traced"`
	Cohort   cohort `json:"cohort"`
	// MeasuredLaps is how many laps (or suite iterations) fed the
	// timing metrics; ValidLaps how many of them passed every check.
	// Timing is reported only when the two are equal.
	MeasuredLaps int `json:"measured_laps"`
	ValidLaps    int `json:"valid_laps"`
	// Ops counts windows cut plus queries answered (or artifacts
	// rendered) over the measured laps; FailedOps how many failed a
	// check.
	Ops       int                    `json:"ops"`
	FailedOps int                    `json:"failed_ops"`
	Metrics   map[string]metricValue `json:"metrics"`
	Ledger    []ledgerRow            `json:"ledger,omitempty"`
	Laps      []lapRecord            `json:"laps"`
}

// timingValid reports whether the run's timing metrics may be used.
func (r *result) timingValid() bool {
	return r.MeasuredLaps > 0 && r.ValidLaps == r.MeasuredLaps && r.FailedOps == 0
}

// setMetric stores a catalogue metric.
func (r *result) setMetric(name string, v float64, dist *summary) {
	def, ok := lookupMetric(name)
	if !ok {
		panic("nsbench: metric not in catalogue: " + name)
	}
	r.Metrics[name] = metricValue{Value: v, Unit: def.Unit, Dist: dist}
}

// setSamples stores a metric as the median of its samples, with their
// distribution beside it.
func (r *result) setSamples(name string, xs []float64) {
	s := summarize(xs)
	r.setMetric(name, s.Median, &s)
}

// driverLine is the one JSON object the benchmark contract wants as the
// last line of standard output.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// writeDriverLine prints the contract line: every gated metric for an
// untraced run, every other catalogue metric for a traced one. It
// fails if the run did not produce one of them.
func (r *result) writeDriverLine(w io.Writer) error {
	line := driverLine{
		Correct:   r.timingValid(),
		Attempted: r.Ops,
		Failed:    r.FailedOps,
		Metrics:   make(map[string]driverValue),
	}
	for _, name := range driverMetrics(r.Traced) {
		m, ok := r.Metrics[name]
		if !ok {
			return fmt.Errorf("run produced no %s", name)
		}
		line.Metrics[name] = driverValue{Value: m.Value, Unit: m.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

// writeHuman prints every metric by name with its unit.
func (r *result) writeHuman(w io.Writer) {
	mode := "untraced"
	if r.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "nsbench %s (%s): %d measured laps, %d valid, ops=%d failed_ops=%d\n",
		r.Workload, mode, r.MeasuredLaps, r.ValidLaps, r.Ops, r.FailedOps)
	c := r.Cohort
	fmt.Fprintf(w, "  cohort: %s %s %s/%s cpu=%q nproc=%d gomaxprocs=%d governor=%s kernel=%s commit=%s seed=%d\n",
		c.Harness, c.GoVersion, c.GOOS, c.GOARCH, c.CPUModel, c.NumCPU, c.GOMAXPROCS, c.Governor, c.Kernel, c.Commit, c.Seed)
	for _, def := range catalogue {
		m, ok := r.Metrics[def.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "  %-34s %16.6g %-7s", def.Name, m.Value, m.Unit)
		if d := m.Dist; d != nil && d.N > 1 {
			fmt.Fprintf(w, " n=%d q1=%.6g q3=%.6g min=%.6g max=%.6g", d.N, d.Q1, d.Q3, d.Min, d.Max)
		}
		fmt.Fprintln(w)
	}
	for _, l := range r.Laps {
		for _, why := range l.Why {
			fmt.Fprintf(w, "  lap %d %s: %s\n", l.Lap, l.State, why)
		}
	}
}
