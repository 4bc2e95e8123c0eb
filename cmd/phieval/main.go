// Command phieval scores a sampling method against a trace's full
// population for one target distribution, printing every Section 5.2
// disparity metric (χ², significance, cost, rcost, X², k, φ).
//
// Usage:
//
//	phieval -in trace.nstr -method stratified -k 50 -target size [-reps 5] [-seed 1]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"netsample/internal/bins"
	"netsample/internal/core"
	"netsample/internal/dist"
	"netsample/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("phieval: ")

	in := flag.String("in", "", "input NSTR trace (required)")
	method := flag.String("method", "systematic", "systematic|stratified|random|systematic-timer|stratified-timer")
	k := flag.Int("k", 50, "sampling granularity (1/fraction)")
	target := flag.String("target", "size", "size|interarrival")
	reps := flag.Int("reps", 5, "replications (systematic varies the offset)")
	seed := flag.Uint64("seed", 1, "seed for the random methods")
	flag.Parse()

	if *in == "" {
		flag.Usage()
		os.Exit(2)
	}
	if *reps < 1 {
		log.Fatalf("-reps must be >= 1, got %d", *reps)
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

	var tgt core.Target
	var scheme *bins.Edged
	switch *target {
	case "size":
		tgt, scheme = core.TargetSize, bins.PacketSize()
	case "interarrival":
		tgt, scheme = core.TargetInterarrival, bins.Interarrival()
	default:
		log.Fatalf("unknown target %q", *target)
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
