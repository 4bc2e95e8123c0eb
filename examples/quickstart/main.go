// Quickstart: generate a small synthetic trace, sample it three ways at
// the NSFNET's operational granularity (1 in 50), and score each sample
// against the full population with the paper's φ coefficient.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"netsample"
)

func main() {
	log.SetFlags(0)

	// 1. A two-minute parent population with the SDSC/NSFNET traffic
	// character: bimodal packet sizes, bursty arrivals, 400 µs clock.
	tr, err := netsample.Generate(netsample.SmallConfig(2024))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("population: %d packets over %s\n\n", tr.Len(), tr.Duration().Round(0))

	// 2. An evaluator for the packet-size target with the paper's bins
	// (<41, 41-180, >180 bytes).
	ev, err := netsample.NewSizeEvaluator(tr)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("population size-bin proportions:", formatProps(ev.PopulationProportions()))

	// 3. Three packet-driven methods at granularity 50.
	r := netsample.NewRNG(7)
	samplers := []netsample.Sampler{
		netsample.Systematic(50),
		netsample.Stratified(50),
		netsample.Random(50),
	}
	fmt.Printf("\n%-20s %8s %10s %12s %10s\n", "method", "n", "phi", "chi2", "sig")
	for _, s := range samplers {
		idx, err := s.Select(tr, r.Split())
		if err != nil {
			log.Fatal(err)
		}
		rep, err := ev.Score(idx)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-20s %8d %10.5f %12.2f %10.4f\n",
			s.Name(), len(idx), rep.Phi, rep.ChiSquare, rep.Significance)
	}

	fmt.Println("\nA phi of 0 would be a sample that perfectly reflects the population;")
	fmt.Println("all three packet-driven methods stay close at this granularity.")
}

func formatProps(ps []float64) string {
	out := ""
	for i, p := range ps {
		if i > 0 {
			out += " / "
		}
		out += fmt.Sprintf("%.3f", p)
	}
	return out
}
