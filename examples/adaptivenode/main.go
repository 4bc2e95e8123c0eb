// Adaptivenode: closed-loop sampling control in action. A node with a
// fixed-capacity statistics processor faces a morning load ramp; the
// pipeline's control law (pipeline.AdaptiveConfig.Decide), run once per
// second of trace time, widens the sampling granularity when the
// processor drops and narrows it again when the sampled size
// distribution drifts past the φ budget. The run prints the epoch
// decisions and compares the final accuracy against an unsampled and a
// fixed 1-in-50 configuration.
//
// Run with:
//
//	go run ./examples/adaptivenode
package main

import (
	"fmt"
	"log"
	"time"

	"netsample/internal/experiment"
	"netsample/internal/nsfnet"
	"netsample/internal/pipeline"
	"netsample/internal/trace"
	"netsample/internal/traffgen"
)

func main() {
	log.SetFlags(0)

	// A 90-second trace: load climbs from ~300 to ~2100 pps and back.
	ramp := func(seed uint64) *trace.Trace {
		cfg := traffgen.NSFNETHour()
		cfg.Seed = seed
		cfg.Duration = 90 * time.Second
		cfg.TargetPPS = 1200
		cfg.Envelope = traffgen.EnvelopeConfig{
			Sigma: 0.1, Rho: 0.9, EpochSeconds: 5, TrendPerHour: 1.5,
		}
		tr, err := traffgen.Generate(cfg)
		if err != nil {
			log.Fatal(err)
		}
		return tr
	}
	tr := ramp(0xca11)
	const capacity = 600 // stats processor: 600 pps
	const buffer = 32

	node, decisions, err := experiment.AdaptiveNode(tr, capacity, buffer, pipeline.AdaptiveConfig{
		MinK: 1, MaxK: 512, StartK: 1, TargetPhi: 0.15,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("controller decisions (one epoch per second):")
	fmt.Printf("%6s %6s %6s %8s %9s\n", "t(s)", "k", "next", "phi", "dropped")
	for i, d := range decisions {
		if i%5 != 0 && d.DropRate == 0 {
			continue // print every 5th quiet epoch
		}
		fmt.Printf("%6d %6d %6d %8.3f %8.1f%%\n", d.Window, d.PrevK, d.K, d.Phi, 100*d.DropRate)
	}

	truth := node.SNMP.InPackets
	fmt.Printf("\n%-16s %10s %10s %8s\n", "config", "truth", "estimate", "error")
	report := func(name string, est uint64) {
		fmt.Printf("%-16s %10d %10d %7.1f%%\n", name, truth, est,
			100*(float64(est)/float64(truth)-1))
	}
	report("adaptive", node.CategorizedPackets())

	plain := nsfnet.NewT1Node(capacity, buffer, 0)
	plain.ProcessTrace(tr)
	report("unsampled", plain.CategorizedPackets())

	fixed := nsfnet.NewT1Node(capacity, buffer, 50)
	fixed.ProcessTrace(tr)
	report("fixed-1-in-50", fixed.CategorizedPackets())

	fmt.Println("\nadaptive control keeps the estimate near the truth like the")
	fmt.Println("fixed deployment, while sampling as finely as the processor allows.")
}
