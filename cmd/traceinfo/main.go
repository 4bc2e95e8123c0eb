// Command traceinfo summarizes a trace file: the Table 2 per-second
// rows, the Table 3 population rows, and the protocol/port composition.
// It reads NSTR natively and libpcap (raw-IP, little-endian) with
// -format pcap, and can convert between the two with -convert.
//
// Usage:
//
//	traceinfo -in trace.nstr
//	traceinfo -in capture.pcap -format pcap
//	traceinfo -in trace.nstr -convert out.pcap
package main

import (
	"cmp"
	"flag"
	"fmt"
	"log"
	"os"
	"slices"
	"sort"
	"strings"
	"time"

	"netsample/internal/core"
	"netsample/internal/experiment"
	"netsample/internal/flows"
	"netsample/internal/packet"
	"netsample/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("traceinfo: ")

	in := flag.String("in", "", "input trace (required)")
	format := flag.String("format", "nstr", "input format: nstr|pcap")
	convert := flag.String("convert", "", "write the trace to this path in the other format")
	showFlows := flag.Bool("flows", false, "also print a 5-tuple flow summary")
	flowTimeout := flag.Duration("flow-timeout", 2*time.Second, "flow idle timeout")
	flag.Parse()

	if *in == "" {
		flag.Usage()
		os.Exit(2)
	}
	f, err := os.Open(*in)
	if err != nil {
		log.Fatalf("open: %v", err)
	}
	var tr *trace.Trace
	switch *format {
	case "nstr":
		tr, err = trace.Read(f)
	case "pcap":
		tr, err = trace.ReadPcap(f)
	default:
		log.Fatalf("unknown format %q", *format)
	}
	f.Close()
	if err != nil {
		log.Fatalf("read: %v", err)
	}

	if *convert != "" {
		g, err := os.Create(*convert)
		if err != nil {
			log.Fatalf("create: %v", err)
		}
		if *format == "nstr" {
			err = trace.WritePcap(g, tr)
		} else {
			err = trace.Write(g, tr)
		}
		if cerr := g.Close(); err == nil {
			err = cerr
		}
		if err != nil {
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
		rows = append(rows, row{ports.Label(key), n})
	}
	slices.SortFunc(rows, byCount)
	var parts []string
	for _, r := range rows {
		parts = append(parts, fmt.Sprintf("%s:%d", r.name, r.n))
	}
	fmt.Printf("well-known ports: %s\n", strings.Join(parts, " "))

	if *showFlows {
		fs, err := flows.Decompose(tr, flowTimeout.Microseconds())
		if err != nil {
			log.Fatalf("flows: %v", err)
		}
		sum := flows.Summarize(fs)
		fmt.Println()
		fmt.Printf("flows (idle timeout %s): %d total, mean %.1f pkts / %.0f bytes, %.1f%% singletons\n",
			flowTimeout, sum.Flows, sum.MeanPackets, sum.MeanBytes, 100*sum.SingletonShare)
		sort.Slice(fs, func(i, j int) bool { return fs[i].Packets > fs[j].Packets })
		fmt.Println("largest flows:")
		for i := 0; i < 5 && i < len(fs); i++ {
			fl := fs[i]
			fmt.Printf("  %15s:%-5d -> %15s:%-5d %-5s %8d pkts %10d bytes\n",
				fl.Key.Src, fl.Key.SrcPort, fl.Key.Dst, fl.Key.DstPort,
				fl.Key.Proto, fl.Packets, fl.Bytes)
		}
	}
}
