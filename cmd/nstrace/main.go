// Command nstrace runs the paper's method chain on trace files: it
// writes a parent trace with the statistical character of the
// SDSC→NSFNET measurement environment (Tables 2–3), samples it with one
// of the five methods, scores a method against it with every Section
// 5.2 disparity metric, and summarizes it.
//
// Usage:
//
//	nstrace gen    -out trace.nstr [-seconds 3600] [-pps 424] [-seed 1993] [-trend 0] [-scenario ddos] [-q]
//	nstrace sample -in trace.nstr -out sampled.nstr [-method systematic] [-k 50] [-offset 0] [-seed 1]
//	nstrace phi    -in trace.nstr [-method systematic] [-k 50] [-target size] [-reps 5] [-seed 1]
//	nstrace info   -in trace.nstr [-convert out.pcap] [-flows] [-flow-timeout 2s]
//
// gen's defaults write the study's calibrated parent population: one
// hour, ≈424 packets/s, 400 µs capture clock; -scenario writes one of
// traffgen's preset anomaly scenarios over that baseline instead. Every
// subcommand that reads a trace reads NSTR, or libpcap (raw-IP,
// little-endian) with -format pcap; info -convert writes it in the
// other format. For the timer methods -k chooses the period as k times
// the trace's mean interarrival time. A flag value no run can use — an
// unknown -format, -method or -target, a -k, -reps or -seconds under 1,
// a -pps that is not finite and positive, a -trend that is not finite,
// an info -flow-timeout under 1µs, or a sample -offset outside [0, k),
// or non-zero for any method but systematic — exits 2 with the usage
// text before any file is read or written.
package main

import (
	"bytes"
	"cmp"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"slices"
	"sort"
	"strings"
	"time"

	"netsample/internal/bins"
	"netsample/internal/core"
	"netsample/internal/dist"
	"netsample/internal/experiment"
	"netsample/internal/flows"
	"netsample/internal/packet"
	"netsample/internal/trace"
	"netsample/internal/traffgen"
)

const usage = `usage:
  nstrace gen    -out trace.nstr [-seconds 3600] [-pps 424] [-seed 1993] [-trend 0] [-scenario ddos] [-q]
  nstrace sample -in trace.nstr -out sampled.nstr [-method systematic] [-k 50] [-offset 0] [-seed 1]
  nstrace phi    -in trace.nstr [-method systematic] [-k 50] [-target size] [-reps 5] [-seed 1]
  nstrace info   -in trace.nstr [-convert out.pcap] [-flows] [-flow-timeout 2s]
sample, phi and info read NSTR, or libpcap with -format pcap.
`

const methods = "systematic|stratified|random|systematic-timer|stratified-timer"

var commands = map[string]func(fs *flag.FlagSet, args []string){
	"gen":    gen,
	"sample": sample,
	"phi":    phi,
	"info":   info,
}

func main() {
	log.SetFlags(0)
	if len(os.Args) < 2 || commands[os.Args[1]] == nil {
		fmt.Fprint(os.Stderr, usage)
		os.Exit(2)
	}
	name := os.Args[1]
	log.SetPrefix("nstrace " + name + ": ")
	fs := flag.NewFlagSet("nstrace "+name, flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprint(fs.Output(), usage)
		fmt.Fprintf(fs.Output(), "flags of %s:\n", name)
		fs.PrintDefaults()
	}
	commands[name](fs, os.Args[2:])
}

// parse parses args into fs and exits 2 with the usage text when a
// required path flag is empty.
func parse(fs *flag.FlagSet, args []string, required ...*string) {
	_ = fs.Parse(args) // ExitOnError: a bad flag has already exited
	for _, r := range required {
		usageIf(fs, *r == "")
	}
}

// usageIf exits 2 with the usage text when bad holds: a flag value no
// run can use, refused right after parsing, before any file is read.
func usageIf(fs *flag.FlagSet, bad bool) {
	if bad {
		fs.Usage()
		os.Exit(2)
	}
}

// inputFlags registers the flags naming the trace a subcommand reads.
func inputFlags(fs *flag.FlagSet) (in, format *string) {
	return fs.String("in", "", "input trace (required)"),
		fs.String("format", "nstr", "input format: nstr|pcap")
}

// badInput reports an input format or a sampling method and
// granularity no subcommand can run.
func badInput(format, method string, k int) bool {
	return format != "nstr" && format != "pcap" ||
		!slices.Contains(strings.Split(methods, "|"), method) || k < 1
}

// load reads the trace at path in format, nstr or pcap, exiting on
// failure. The file is read whole, not mapped, so an output written
// over it (-convert) cannot pull the trace's pages from under it.
func load(path, format string) *trace.Trace {
	data, err := os.ReadFile(path)
	if err != nil {
		log.Fatalf("open: %v", err)
	}
	var tr *trace.Trace
	if format == "pcap" {
		tr, err = trace.ReadPcap(bytes.NewReader(data))
	} else {
		var m *trace.MapReader
		if m, err = trace.NewMapReaderBytes(data); err == nil {
			tr, err = m.Trace()
		}
	}
	if err != nil {
		log.Fatalf("read: %v", err)
	}
	return tr
}

// create writes tr to path with write (trace.Write or trace.WritePcap).
func create(path string, tr *trace.Trace, write func(io.Writer, *trace.Trace) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f, tr)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func gen(fs *flag.FlagSet, args []string) {
	out := fs.String("out", "", "output trace file (required)")
	seconds := fs.Int("seconds", 3600, "trace duration in seconds")
	pps := fs.Float64("pps", 424, "target average packets per second")
	seed := fs.Uint64("seed", 0x53445343_1993, "generator seed")
	trend := fs.Float64("trend", 0, "linear load trend across the trace (e.g. 0.2 = +20%)")
	scenario := fs.String("scenario", "", "write a preset anomaly scenario instead of steady-state traffic, ignoring -pps and -trend: "+
		strings.Join(traffgen.ScenarioNames(), ", "))
	quiet := fs.Bool("q", false, "suppress the summary")
	parse(fs, args, out)
	// Negated, so NaN is refused too: a rate must be finite and
	// positive, a trend finite. A scenario must be a preset.
	usageIf(fs, *seconds < 1 || !(*pps > 0 && *pps <= math.MaxFloat64) || !(math.Abs(*trend) <= math.MaxFloat64) ||
		*scenario != "" && !slices.Contains(traffgen.ScenarioNames(), *scenario))

	cfg := traffgen.NSFNETHour()
	cfg.Seed = *seed
	cfg.Duration = time.Duration(*seconds) * time.Second
	cfg.TargetPPS = *pps
	cfg.Envelope.TrendPerHour = *trend
	s := traffgen.Scenario{Base: cfg} // what traffgen.Generate(cfg) runs
	if *scenario != "" {
		var err error
		if s, err = traffgen.PresetScenario(*scenario, *seed, cfg.Duration); err != nil {
			log.Fatalf("generate: %v", err)
		}
	}
	tr, err := traffgen.GenerateScenario(s)
	if err != nil {
		log.Fatalf("generate: %v", err)
	}
	if err := create(*out, tr, trace.Write); err != nil {
		log.Fatalf("write: %v", err)
	}
	if !*quiet {
		fmt.Printf("wrote %s: %d packets, %d bytes of traffic, %s span\n",
			*out, tr.Len(), tr.TotalBytes(), tr.Duration().Round(time.Second))
	}
}

func sample(fs *flag.FlagSet, args []string) {
	in, format := inputFlags(fs)
	out := fs.String("out", "", "output NSTR trace of selected packets (required)")
	method := fs.String("method", "systematic", methods)
	k := fs.Int("k", 50, "sampling granularity (1/fraction)")
	offset := fs.Int("offset", 0, "systematic start offset, in [0, k); only systematic takes one")
	seed := fs.Uint64("seed", 1, "seed for the random methods")
	parse(fs, args, in, out)
	usageIf(fs, badInput(*format, *method, *k) ||
		*offset != 0 && (*method != "systematic" || *offset < 0 || *offset >= *k))

	tr := load(*in, *format)
	sampler, err := core.New(*method, tr, *k, *offset)
	if err != nil {
		log.Fatalf("%v", err)
	}
	idx, err := sampler.Select(tr, dist.NewRNG(*seed))
	if err != nil {
		log.Fatalf("select: %v", err)
	}
	sub := &trace.Trace{Start: tr.Start, ClockUS: tr.ClockUS}
	for _, i := range idx {
		sub.Packets = append(sub.Packets, tr.Packets[i])
	}
	if err := create(*out, sub, trace.Write); err != nil {
		log.Fatalf("write: %v", err)
	}
	fmt.Printf("%s: selected %d of %d packets (fraction %.5f)\n",
		sampler.Name(), len(idx), tr.Len(), float64(len(idx))/float64(tr.Len()))
}

func phi(fs *flag.FlagSet, args []string) {
	in, format := inputFlags(fs)
	method := fs.String("method", "systematic", methods)
	k := fs.Int("k", 50, "sampling granularity (1/fraction)")
	target := fs.String("target", "size", "size|interarrival")
	reps := fs.Int("reps", 5, "replications (systematic varies the offset)")
	seed := fs.Uint64("seed", 1, "seed for the random methods")
	parse(fs, args, in)
	usageIf(fs, badInput(*format, *method, *k) || *reps < 1 || *target != "size" && *target != "interarrival")
	tr := load(*in, *format)

	tgt, scheme := core.TargetSize, bins.PacketSize()
	if *target == "interarrival" {
		tgt, scheme = core.TargetInterarrival, bins.Interarrival()
	}
	ev, err := core.NewEvaluator(tr, tgt, scheme)
	if err != nil {
		log.Fatalf("evaluator: %v", err)
	}
	r := dist.NewRNG(*seed)
	sampler, err := core.New(*method, tr, *k, 0)
	if err != nil {
		log.Fatalf("%v", err)
	}
	var replications []core.Replication
	switch *method {
	case "systematic":
		replications, err = core.SystematicOffsets(ev, *k, *reps, r)
	case "systematic-timer":
		// Nothing to vary: at offset 0 every replication is the same.
		replications, err = core.Replicate(ev, sampler, 1, r)
	default:
		replications, err = core.Replicate(ev, sampler, *reps, r)
	}
	if err != nil {
		log.Fatalf("sampling: %v", err)
	}

	fmt.Printf("method=%s target=%s k=%d population=%d\n", *method, tgt, *k, tr.Len())
	fmt.Printf("%4s %9s %12s %8s %12s %12s %10s %10s %10s\n",
		"rep", "n", "chi2", "sig", "cost", "rcost", "X2", "k", "phi")
	for i, rep := range replications {
		fmt.Printf("%4d %9d %12.2f %8.4f %12.0f %12.2f %10.6f %10.6f %10.6f\n",
			i, rep.SampleSize, rep.Report.ChiSquare, rep.Report.Significance,
			rep.Report.Cost, rep.Report.RelativeCost, rep.Report.PaxsonX2,
			rep.Report.AvgNormDev, rep.Report.Phi)
	}
	fmt.Printf("mean phi: %.6f\n", core.MeanPhi(replications))
}

func info(fs *flag.FlagSet, args []string) {
	in, format := inputFlags(fs)
	convert := fs.String("convert", "", "write the trace to this path in the other format")
	showFlows := fs.Bool("flows", false, "also print a 5-tuple flow summary")
	flowTimeout := fs.Duration("flow-timeout", 2*time.Second, "flow idle timeout")
	parse(fs, args, in)
	// The flow table keeps the timeout in whole µs and needs it positive.
	usageIf(fs, *format != "nstr" && *format != "pcap" || *flowTimeout < time.Microsecond)
	tr := load(*in, *format)

	if *convert != "" {
		write := trace.WritePcap
		if *format == "pcap" {
			write = trace.Write
		}
		if err := create(*convert, tr, write); err != nil {
			log.Fatalf("convert: %v", err)
		}
		fmt.Printf("converted %d packets to %s\n", tr.Len(), *convert)
	}

	t2, err := experiment.Table2(tr)
	if err != nil {
		log.Fatalf("summary: %v", err)
	}
	if err := t2.WriteText(os.Stdout); err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	t3, err := experiment.Table3(core.NewProfile(tr))
	if err != nil {
		log.Fatalf("summary: %v", err)
	}
	if err := t3.WriteText(os.Stdout); err != nil {
		log.Fatal(err)
	}

	// Composition.
	var ports core.PortCategorizer
	protoPkts := map[packet.Protocol]int{}
	portPkts := map[uint64]int{}
	for _, p := range tr.Packets {
		protoPkts[p.Protocol]++
		if key, ok := ports.Key(p); ok {
			portPkts[key]++
		}
	}
	fmt.Println()
	fmt.Println("protocol composition:")
	type row struct {
		name string
		n    int
	}
	// Largest count first; ties by name, since rows come from map order.
	byCount := func(a, b row) int {
		if c := cmp.Compare(b.n, a.n); c != 0 {
			return c
		}
		return strings.Compare(a.name, b.name)
	}
	var rows []row
	for pr, n := range protoPkts {
		rows = append(rows, row{pr.String(), n})
	}
	slices.SortFunc(rows, byCount)
	for _, r := range rows {
		fmt.Printf("  %-8s %9d (%5.1f%%)\n", r.name, r.n, 100*float64(r.n)/float64(tr.Len()))
	}
	rows = rows[:0]
	for key, n := range portPkts {
		rows = append(rows, row{string(ports.AppendLabel(nil, key)), n})
	}
	slices.SortFunc(rows, byCount)
	var parts []string
	for _, r := range rows {
		parts = append(parts, fmt.Sprintf("%s:%d", r.name, r.n))
	}
	fmt.Printf("well-known ports: %s\n", strings.Join(parts, " "))

	if *showFlows {
		fls, err := flows.Decompose(tr, flowTimeout.Microseconds())
		if err != nil {
			log.Fatalf("flows: %v", err)
		}
		c := flows.CountFlows(fls)
		n := float64(c.Flows) // a nonempty trace has a flow
		fmt.Println()
		fmt.Printf("flows (idle timeout %s): %d total, mean %.1f pkts / %.0f bytes, %.1f%% singletons\n",
			flowTimeout, c.Flows, float64(c.Packets)/n, float64(c.Bytes)/n, 100*(float64(c.Singletons)/n))
		sort.Slice(fls, func(i, j int) bool { return fls[i].Packets > fls[j].Packets })
		fmt.Println("largest flows:")
		for i := 0; i < 5 && i < len(fls); i++ {
			fl := fls[i]
			fmt.Printf("  %15s:%-5d -> %15s:%-5d %-5s %8d pkts %10d bytes\n",
				fl.Key.Src, fl.Key.SrcPort, fl.Key.Dst, fl.Key.DstPort,
				fl.Key.Proto, fl.Packets, fl.Bytes)
		}
	}
}
