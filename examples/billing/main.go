// Billing: the paper's Section 5.2 service-provider scenario. A provider
// charges clients by packet volume but only *samples* traffic; each
// client's bill is the sampled count scaled by the granularity. The cost
// (l1) metric totals the absolute billing discrepancy — overcharges
// client dissatisfaction, undercharges lost revenue — and relative cost
// credits the resource savings of sampling less often.
//
// Run with:
//
//	go run ./examples/billing
package main

import (
	"cmp"
	"fmt"
	"log"
	"math"
	"slices"
	"strings"

	"netsample"
)

func main() {
	log.SetFlags(0)

	tr, err := netsample.Generate(netsample.SmallConfig(5150))
	if err != nil {
		log.Fatal(err)
	}
	// A client is a source network, named by its dotted network number.
	client := func(i int) string { return tr.Packets[i].Src.NetworkNumber().String() }
	// bill charges each client k per sampled packet.
	bill := func(idx []int, k int) map[string]float64 {
		billed := map[string]float64{}
		for _, i := range idx {
			billed[client(i)] += float64(k)
		}
		return billed
	}

	// True per-client packet counts.
	truth := map[string]float64{}
	for i := range tr.Packets {
		truth[client(i)]++
	}
	fmt.Printf("population: %d packets from %d client networks\n\n", tr.Len(), len(truth))

	r := netsample.NewRNG(99)
	fmt.Printf("%8s %14s %14s %12s %12s\n", "1/frac", "overcharge", "undercharge", "l1 cost", "rel cost")
	for _, k := range []int{10, 50, 250, 1000, 5000} {
		idx, err := netsample.Stratified(k).Select(tr, r.Split())
		if err != nil {
			log.Fatal(err)
		}
		// Every billed client sent a packet, so truth holds them all.
		billed := bill(idx, k)
		var over, under float64
		for net, actual := range truth {
			if d := billed[net] - actual; d > 0 {
				over += d
			} else {
				under -= d
			}
		}
		cost := over + under
		fmt.Printf("%8d %13.0fp %13.0fp %11.0fp %12.1f\n",
			k, over, under, cost, cost/float64(k))
	}

	// Show the worst-billed clients at the operational granularity.
	const k = 50
	idx, err := netsample.Systematic(k).Select(tr, nil)
	if err != nil {
		log.Fatal(err)
	}
	billed := bill(idx, k)
	type row struct {
		net  string
		real float64
		bill float64
	}
	var rows []row
	for net, actual := range truth {
		rows = append(rows, row{net, actual, billed[net]})
	}
	// Largest absolute error first; equal errors in client order.
	slices.SortFunc(rows, func(a, b row) int {
		return cmp.Or(cmp.Compare(math.Abs(b.bill-b.real), math.Abs(a.bill-a.real)), strings.Compare(a.net, b.net))
	})
	fmt.Printf("\nworst-billed clients at 1-in-%d systematic sampling:\n", k)
	fmt.Printf("%18s %10s %10s %9s\n", "client network", "actual", "billed", "error")
	for i := 0; i < 5 && i < len(rows); i++ {
		rw := rows[i]
		errPct := 0.0
		if rw.real > 0 {
			errPct = 100 * (rw.bill - rw.real) / rw.real
		}
		fmt.Printf("%18s %10.0f %10.0f %8.1f%%\n", rw.net, rw.real, rw.bill, errPct)
	}
	fmt.Println("\nsmall clients suffer the largest relative billing error —")
	fmt.Println("the paper's point that sparse matrix cells sample poorly.")
}
