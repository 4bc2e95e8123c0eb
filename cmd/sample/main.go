// Command sample applies one of the paper's five sampling methods to an
// NSTR trace and writes the sampled sub-trace (and, optionally, the
// selected indices).
//
// Usage:
//
//	sample -in trace.nstr -out sampled.nstr -method systematic -k 50 [-offset 0] [-seed 1]
//
// Methods: systematic, stratified, random, systematic-timer,
// stratified-timer. For timer methods -k chooses the period as k times
// the trace's mean interarrival time.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"netsample/internal/core"
	"netsample/internal/dist"
	"netsample/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sample: ")

	in := flag.String("in", "", "input NSTR trace (required)")
	out := flag.String("out", "", "output NSTR trace of selected packets (required)")
	method := flag.String("method", "systematic", "systematic|stratified|random|systematic-timer|stratified-timer")
	k := flag.Int("k", 50, "sampling granularity (1/fraction)")
	offset := flag.Int("offset", 0, "systematic start offset")
	seed := flag.Uint64("seed", 1, "seed for the random methods")
	flag.Parse()

	if *in == "" || *out == "" {
		flag.Usage()
		os.Exit(2)
	}

	f, err := os.Open(*in)
	if err != nil {
		log.Fatalf("open: %v", err)
	}
	tr, err := trace.Read(f)
	f.Close()
	if err != nil {
		log.Fatalf("read: %v", err)
	}

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
	g, err := os.Create(*out)
	if err != nil {
		log.Fatalf("create: %v", err)
	}
	if err := trace.Write(g, sub); err != nil {
		g.Close()
		log.Fatalf("write: %v", err)
	}
	if err := g.Close(); err != nil {
		log.Fatalf("close: %v", err)
	}
	fmt.Printf("%s: selected %d of %d packets (fraction %.5f)\n",
		sampler.Name(), len(idx), tr.Len(), float64(len(idx))/float64(tr.Len()))
}
