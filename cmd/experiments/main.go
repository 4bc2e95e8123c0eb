// Command experiments regenerates every table and figure of the paper on
// the calibrated synthetic parent population and prints the results.
//
// Usage:
//
//	experiments [-in trace.nstr] [-only figure8] [-quick]
//	experiments -matrix [-seed 1993] [-k 10] [-quick] [-format csv]
//
// Without -in the calibrated hour trace is generated in memory (~1.5 M
// packets, a second or two). -quick substitutes a two-minute population
// for a fast smoke run. -only runs and prints just the artifacts with one
// id: table1..table3, figure1..figure11, sec5.1, sec5.2 (both targets),
// sec5-theory, ext-ports, ext-matrix, ext-adaptive, ext-fixwest,
// ext-burst, ext-artshist, ext-flows, ext-heavyhitters or repro-check;
// or ablations, the design-choice ablations (median φ and IQR over
// replications), which only -only runs. An unknown id is refused
// before any population is built, as are an unknown -format, and -seed
// or -k, which only -matrix reads (exit 2).
//
// -matrix runs the scenario × sampler characterization matrix instead
// of the paper suite: every traffgen preset scenario (ddos, flashcrowd,
// hhchurn, portscan, elephantmice) against every sampling method plus
// the adaptive controller, one cell per combination, each scored
// against the scenario's own population. -matrix refuses -in and -only
// — each scenario is its own parent — and a -k under 1. With -quick, cells run over 30-second
// scenarios; the default is 2 minutes. Output is byte-identical across
// runs at the same seed in all formats.
package main

import (
	"flag"
	"log"
	"os"
	"time"

	"netsample/internal/experiment"
	"netsample/internal/trace"
	"netsample/internal/traffgen"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")

	in := flag.String("in", "", "NSTR trace to use as the parent population (default: generate)")
	only := flag.String("only", "", "run and render only the artifact with this id")
	quick := flag.Bool("quick", false, "use a 2-minute population for a fast run")
	format := flag.String("format", "text", "output format: text|csv|json")
	matrix := flag.Bool("matrix", false, "run the scenario × sampler matrix instead of the paper suite")
	seed := flag.Uint64("seed", 1993, "matrix RNG seed")
	k := flag.Int("k", 10, "matrix base sampling granularity")
	flag.Parse()

	// An unknown format or a granularity under 1 would surface only
	// after a population is built, the matrix has no use for -only or
	// -in, and the paper suite none for -seed or -k: refuse them all
	// first.
	seedOrK := false
	flag.Visit(func(f *flag.Flag) { seedOrK = seedOrK || f.Name == "seed" || f.Name == "k" })
	switch {
	case *format != "text" && *format != "csv" && *format != "json",
		*k < 1,
		*matrix && (*only != "" || *in != ""),
		!*matrix && seedOrK:
		flag.Usage()
		os.Exit(2)
	}

	if *matrix {
		dur := 2 * time.Minute
		if *quick {
			dur = 30 * time.Second
		}
		r, err := experiment.Matrix(*seed, dur, *k)
		if err != nil {
			log.Fatalf("matrix: %v", err)
		}
		if err := experiment.WriteAllFormat(os.Stdout, []experiment.Result{r}, *format); err != nil {
			log.Fatalf("render: %v", err)
		}
		return
	}

	suite := experiment.All
	var err error
	if *only != "" {
		if suite, err = experiment.Only(*only); err != nil {
			log.Fatal(err)
		}
	}

	var tr *trace.Trace
	switch {
	case *in != "":
		data, ferr := os.ReadFile(*in)
		if ferr != nil {
			log.Fatalf("open: %v", ferr)
		}
		var m *trace.MapReader
		if m, err = trace.NewMapReaderBytes(data); err == nil {
			tr, err = m.Trace()
		}
	case *quick:
		tr, err = traffgen.Generate(traffgen.SmallTrace(12345))
	default:
		tr, err = traffgen.Hour()
	}
	if err != nil {
		log.Fatalf("population: %v", err)
	}

	results, err := suite(tr)
	if err != nil {
		log.Fatalf("run: %v", err)
	}
	if err := experiment.WriteAllFormat(os.Stdout, results, *format); err != nil {
		log.Fatalf("render: %v", err)
	}
}
