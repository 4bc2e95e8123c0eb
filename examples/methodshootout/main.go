// Methodshootout: the paper's five-method comparison on both
// characterization targets — the experiment behind Figures 8 and 9 — on
// a compact population, ending with the paper's operational
// recommendation.
//
// Run with:
//
//	go run ./examples/methodshootout
package main

import (
	"fmt"
	"log"
	"strings"

	"netsample"
)

// replications is how many samples each method draws per granularity;
// each cell reports their mean φ.
const replications = 5

// granularities is the 1-in-k grid, 1/4 down to 1/4096 of the packets.
var granularities = []int{4, 16, 64, 256, 1024, 4096}

// samplers builds the five methods at granularity k on tr.
func samplers(tr *netsample.Trace, k int) ([]netsample.Sampler, error) {
	st, err := netsample.SystematicTimer(tr, float64(k))
	if err != nil {
		return nil, err
	}
	rt, err := netsample.StratifiedTimer(tr, float64(k))
	if err != nil {
		return nil, err
	}
	return []netsample.Sampler{
		netsample.Systematic(k), netsample.Stratified(k), netsample.Random(k), st, rt,
	}, nil
}

func main() {
	log.SetFlags(0)

	tr, err := netsample.Generate(netsample.SmallConfig(8899))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("population: %d packets\n", tr.Len())

	size, err := netsample.NewSizeEvaluator(tr)
	if err != nil {
		log.Fatal(err)
	}
	iat, err := netsample.NewInterarrivalEvaluator(tr)
	if err != nil {
		log.Fatal(err)
	}
	r := netsample.NewRNG(8001)
	type summary struct {
		target        netsample.Target
		packet, timer float64
	}
	var sums []summary
	for _, ev := range []*netsample.Evaluator{size, iat} {
		packet, timer, err := shootout(tr, ev, r)
		if err != nil {
			log.Fatal(err)
		}
		sums = append(sums, summary{ev.Target(), packet, timer})
	}

	fmt.Println()
	for _, s := range sums {
		fmt.Printf("mean phi over coarse granularities, %-13s packet=%.4f timer=%.4f\n",
			s.target.String()+":", s.packet, s.timer)
	}
	fmt.Println("\nconclusion (matching the paper): prefer packet-triggered sampling;")
	fmt.Println("within the packet-triggered class the differences are small, so the")
	fmt.Println("operationally simplest — systematic count-based — is a sound choice.")
}

// shootout prints every method's mean φ on ev's target at each
// granularity, and returns the mean per class (packet- or
// timer-triggered) over the coarser half of the grid.
func shootout(tr *netsample.Trace, ev *netsample.Evaluator, r *netsample.RNG) (packet, timer float64, err error) {
	fmt.Printf("\nmean phi vs sampling fraction, %s target (%d replications)\n", ev.Target(), replications)
	var pSum, tSum float64
	var pN, tN int
	for g, k := range granularities {
		ss, err := samplers(tr, k)
		if err != nil {
			return 0, 0, err
		}
		if g == 0 {
			fmt.Printf("%8s", "1/frac")
			for _, s := range ss {
				fmt.Printf(" %18s", s.Name())
			}
			fmt.Println()
		}
		fmt.Printf("%8d", k)
		for _, s := range ss {
			var mean float64
			for range replications {
				idx, err := s.Select(tr, r.Split())
				if err != nil {
					return 0, 0, err
				}
				phi, err := ev.Phi(idx)
				if err != nil {
					return 0, 0, err
				}
				mean += phi / replications
			}
			fmt.Printf(" %18.5f", mean)
			if g < len(granularities)/2 {
				continue
			}
			if strings.HasSuffix(s.Name(), "/timer") {
				tSum += mean
				tN++
			} else {
				pSum += mean
				pN++
			}
		}
		fmt.Println()
	}
	return pSum / float64(pN), tSum / float64(tN), nil
}
