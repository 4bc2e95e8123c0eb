// Command nsbench is the system benchmark: six named workloads driven
// end to end through the public calls cmd/nsd and cmd/nocquery make
// (trace file → pipeline → snapshot wire → store → cold query), with
// correctness checks, and a separate traced run that attributes the
// cost to layers from outside the program. benchmarks/README.md has
// the protocol and the metric glossary.
//
// Usage:
//
//	nsbench -workload NAME [-seed 1993] [-seconds 10] [-trace 0|1] [-json FILE]
//	nsbench -all -out DIR [-seed 1993] [-seconds 10]
//	nsbench -validate-only DIR
//	nsbench -compare A/results.json B/results.json
//
// A -workload run prints every metric by name with its unit and, as
// the last line of standard output, the one-object JSON summary the
// benchmark contract (BENCHMARK.json) asks for. Exit status: 0 for a
// run that measured, 1 for a void run (HARNESS_ERROR) or a failed
// check, 2 for usage errors.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	var (
		workloadName = flag.String("workload", "", "run this workload once in this process")
		seed         = flag.Uint64("seed", 1993, "workload seed; reaches traffgen and nothing else")
		seconds      = flag.Int("seconds", 10, "how long one run measures")
		traceMode    = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: the traced per-layer run")
		tmp          = flag.String("tmp", filepath.Join(".bench_build", "tmp"), "scratch directory for trace files and stores")
		jsonOut      = flag.String("json", "", "also write the run's full result to this file")
		spansOut     = flag.String("spans", "", "where a traced run writes its spans (default <tmp>/spans-<workload>.json)")
		all          = flag.Bool("all", false, "run every workload in a fresh child process, untraced then traced, into -out")
		out          = flag.String("out", "", "output folder for -all")
		validateOnly = flag.String("validate-only", "", "re-check an existing -all output folder without running anything")
		compare      = flag.Bool("compare", false, "compare two results.json files given as arguments")
	)
	flag.Parse()

	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			usage("-compare needs two results.json files")
		}
		err = runCompare(os.Stdout, flag.Arg(0), flag.Arg(1))
	case *validateOnly != "":
		err = validateFolder(*validateOnly)
		if err == nil {
			fmt.Printf("%s: valid\n", *validateOnly)
		}
	case *all:
		if *out == "" {
			usage("-all needs -out DIR")
		}
		err = runAll(*out, *tmp, *seed, *seconds)
	case *workloadName != "":
		if *seconds < 1 || (*traceMode != 0 && *traceMode != 1) {
			usage("-seconds must be at least 1 and -trace 0 or 1")
		}
		err = runOne(runOpts{
			workload: *workloadName, seed: *seed, seconds: *seconds,
			traced: *traceMode == 1, tmp: *tmp, spans: *spansOut,
		}, *jsonOut)
	default:
		usage("one of -workload, -all, -validate-only or -compare is required")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "nsbench:", err)
		os.Exit(1)
	}
}

func usage(msg string) {
	fmt.Fprintln(os.Stderr, "nsbench:", msg)
	flag.Usage()
	os.Exit(2)
}

// errCheckFailed is returned for a run that measured but failed a
// correctness check: its result is printed, its timing is not.
var errCheckFailed = errors.New("CHECK_FAILED: timing withheld, see the lap records above")

// runOne runs one workload in this process and prints its result.
func runOne(o runOpts, jsonOut string) error {
	if _, ok := findWorkload(o.workload); !ok {
		names := make([]string, len(workloads))
		for i, w := range workloads {
			names[i] = w.Name
		}
		return fmt.Errorf("unknown workload %q (have %v)", o.workload, names)
	}
	res, err := runWorkload(o)
	if err != nil {
		return err
	}
	if jsonOut != "" {
		if err := writeJSON(jsonOut, res); err != nil {
			return err
		}
	}
	res.writeHuman(os.Stdout)
	if !res.timingValid() {
		return errCheckFailed
	}
	return res.writeDriverLine(os.Stdout)
}

// writeJSON writes v to path, indented.
func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// readJSON decodes the file at path into v.
func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
