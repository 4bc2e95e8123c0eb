// Livecollect: an end-to-end NSFNET-style collection run over real
// sockets on loopback. Three simulated backbone nodes each run the
// characterization pipeline behind a collection agent — one T1 node
// whose statistics processor keeps up, one overloaded T1 node that
// silently loses categorization data, and one T3 node selecting 1 in 50
// packets in the forwarding path. Each node also counts every packet it
// forwards, the exact in-path interface counter that SNMP reported on
// the real backbone. A NOC collector polls every node's window snapshot
// and prints the scaled collection (selected × k) beside that count —
// Figure 1's case for sampling.
//
// Run with:
//
//	go run ./examples/livecollect
package main

import (
	"fmt"
	"log"
	"time"

	"netsample/internal/arts"
	"netsample/internal/collect"
	"netsample/internal/dist"
	"netsample/internal/nsfnet"
	"netsample/internal/online"
	"netsample/internal/pipeline"
	"netsample/internal/trace"
	"netsample/internal/traffgen"
)

// node bundles a collection agent and the node's exact forwarding-path
// packet count.
type node struct {
	name   string
	k      int
	agent  *collect.Agent
	addr   string
	inPkts uint64
}

func main() {
	log.SetFlags(0)

	mkTrace := func(seed uint64, pps float64) *trace.Trace {
		cfg := traffgen.NSFNETHour()
		cfg.Seed = seed
		cfg.Duration = 30 * time.Second
		cfg.TargetPPS = pps
		tr, err := traffgen.Generate(cfg)
		if err != nil {
			log.Fatal(err)
		}
		return tr
	}

	// start forwards tr through a node: every packet counts in the exact
	// interface counter, the packets the statistics path admits stream
	// through a pipeline selecting the k-th, 2k-th, ... of them, and the
	// agent serves the pipeline's snapshot.
	var nodes []*node
	start := func(name string, tr *trace.Trace, k int, admit func(trace.Packet) bool) {
		n := &node{name: name, k: k}
		stats := &trace.Trace{ClockUS: tr.ClockUS}
		for _, p := range tr.Packets {
			n.inPkts++
			if admit(p) {
				stats.Packets = append(stats.Packets, p)
			}
		}
		pl, err := pipeline.New(pipeline.Config{
			Shards:     1,
			NewSampler: func(int) (online.Sampler, error) { return online.NewSystematic(k, k-1) },
		})
		if err != nil {
			log.Fatal(err)
		}
		if err := pl.Run(stats.Replay()); err != nil {
			log.Fatal(err)
		}
		n.agent = collect.NewAgent(name, arts.T3) // the backbone argument is ignored
		n.agent.Snapshots = pipeline.NewExporter(pl, name)
		addr, err := n.agent.Serve("127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		n.addr = addr.String()
		nodes = append(nodes, n)
	}

	// Node 1: lightly loaded T1 NSS; the dedicated processor keeps up,
	// every packet is categorized.
	proc1 := nsfnet.NewProcessor(5000, 64)
	start("NSS-lightly-loaded", mkTrace(101, 500), 1,
		func(p trace.Packet) bool { return proc1.Offer(p.Time) })

	// Node 2: the mid-1991 situation — traffic has outgrown the
	// statistics processor; SNMP counts stay exact, categorization
	// silently falls behind.
	proc2 := nsfnet.NewProcessor(900, 32) // far below offered load
	start("NSS-overloaded", mkTrace(102, 2500), 1,
		func(p trace.Packet) bool { return proc2.Offer(p.Time) })

	// Node 3: the T3 architecture — selection in the forwarding path
	// passes every 50th packet on to be categorized.
	start("ENSS-T3-sampled", mkTrace(103, 2500), 50,
		func(trace.Packet) bool { return true })

	// The NOC polls the collection agents over TCP (15 minutes on the
	// real backbone; immediate here). Polls retry with seeded-jitter backoff, as a production collector would;
	// the seed makes any retry schedule reproducible.
	c := collect.NewCollector()
	c.Retries = 3
	c.Backoff = 25 * time.Millisecond
	c.MaxBackoff = 500 * time.Millisecond
	c.Jitter = dist.NewRNG(7)

	fmt.Printf("%-22s %10s %9s %4s %10s %10s\n", "node", "snmp", "selected", "k", "collected", "shortfall")
	var snmpTotal, collectedTotal uint64
	for _, n := range nodes {
		snap, err := c.PollSnapshot(n.addr)
		if err != nil {
			log.Fatalf("poll %s: %v", n.name, err)
		}
		truth := n.inPkts
		// The snapshot does not carry k; the NOC knows each node's
		// configured granularity.
		collected := snap.Selected * uint64(n.k)
		snmpTotal += truth
		collectedTotal += collected
		short := 1 - float64(collected)/float64(truth)
		fmt.Printf("%-22s %10d %9d %4d %10d %9.1f%%\n", n.name, truth, snap.Selected, n.k, collected, 100*short)
	}
	fmt.Printf("\nbackbone-wide: SNMP %d packets, collection %d (%.1f%% of truth)\n",
		snmpTotal, collectedTotal, 100*float64(collectedTotal)/float64(snmpTotal))
	fmt.Println("\nthe overloaded node undercounts badly; the sampled T3 node's")
	fmt.Println("scaled estimate stays near the SNMP truth at 2% of the cost.")

	for _, n := range nodes {
		if err := n.agent.Close(); err != nil {
			log.Printf("close %s: %v", n.name, err)
		}
	}
}
