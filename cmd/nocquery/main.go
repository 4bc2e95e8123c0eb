// Command nocquery answers time-range queries from a snapshot store on
// disk — the offline counterpart of polling a live fleet. It replays
// the exact wire payloads nsd -store or noccollect -store persisted
// (internal/store) and folds them, one window at a time, through the
// same exact-merge logic the live pipeline uses (pipeline.WireFold,
// MergeWire's accumulator), so a cold store answers the questions the
// NOC would ask the fleet: the heavy hitters over the last hour, the
// merged size/interarrival histograms, and the per-window φ-scores.
//
// Usage:
//
//	nocquery -store DIR [-from US -to US | -last 1h] [-node NAME]
//	         [-top 10] [-windows] [-hist] [-verify]
//
// Time bounds are on the store's own virtual clock (snapshot window
// ends, microseconds); -last, exclusive with -from/-to, measures back
// from the newest record, so "the last hour" means the last hour of
// traffic, independent of when the query runs. -verify recomputes the
// full Merkle chain first and refuses to answer from a store that fails
// it, naming the damaged segment and byte offset. Without -verify, a
// record that fails to decode part-way through the range ends the query
// with exit status 1 naming it; -windows has by then printed the lines
// of the windows before it, and no merged summary is printed.
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"os"

	"netsample/internal/collect"
	"netsample/internal/pipeline"
	"netsample/internal/store"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("nocquery: ")

	var (
		dir     = flag.String("store", "", "store directory to query (required)")
		fromUS  = flag.Int64("from", math.MinInt64, "range start, inclusive, in virtual-clock microseconds")
		toUS    = flag.Int64("to", math.MaxInt64, "range end, inclusive, in virtual-clock microseconds")
		last    = flag.Duration("last", 0, "query the trailing span of the store's virtual clock (e.g. 1h); exclusive with -from/-to")
		node    = flag.String("node", "", "only snapshots from this node")
		top     = flag.Int("top", pipeline.DefaultTopKReport, "heavy hitters to print")
		windows = flag.Bool("windows", false, "print one line per window (seq, bounds, φ-scores)")
		hist    = flag.Bool("hist", false, "print the merged histogram bins")
		verify  = flag.Bool("verify", false, "verify the full Merkle chain before answering")
	)
	flag.Parse()

	if *top < 1 {
		log.Printf("-top %d: want at least 1", *top)
	}
	if *last < 0 {
		log.Printf("-last %v: want a positive span", *last)
	}
	inverted := *fromUS > *toUS
	if inverted {
		log.Printf("-from %d -to %d: want from <= to", *fromUS, *toUS)
	}
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	both := set["last"] && (set["from"] || set["to"])
	if both {
		log.Print("-last and -from/-to: give one or the other")
	}
	if *dir == "" || *top < 1 || *last < 0 || inverted || both {
		flag.Usage()
		os.Exit(2)
	}
	if *verify {
		if err := store.Verify(*dir); err != nil {
			log.Fatalf("verify failed: %v", err)
		}
		fmt.Println("store chain verified")
	}

	r, err := store.OpenReader(*dir)
	if err != nil {
		log.Fatal(err)
	}
	first, lastTS, ok := r.Bounds()
	if !ok {
		log.Fatal("store holds no records")
	}
	from, to := *fromUS, *toUS
	if *last > 0 {
		from, to = lastTS-last.Microseconds()+1, lastTS
	}
	fmt.Printf("store spans [%dus, %dus]; querying [%dus, %dus]\n", first, lastTS, from, to)

	// Stream the range through the fold: one decoded window is held at a
	// time. A merge error is kept until the scan ends, so -windows still
	// lists every window in range before the query fails.
	fold := pipeline.NewWireFold(*top)
	n := 0
	var mergeErr error
	err = r.EachSnapshot(from, to, func(s *collect.Snapshot) error {
		if *node != "" && s.Node != *node {
			return nil
		}
		n++
		if *windows {
			fmt.Println(windowLine(s))
		}
		if mergeErr == nil {
			mergeErr = fold.Add(s)
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	if n == 0 {
		log.Fatal("no snapshots in range")
	}
	if mergeErr != nil {
		log.Fatal(mergeErr)
	}
	m, err := fold.Merged()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("merged %d windows from %s over [%dus, %dus)\n",
		n, m.Node, m.WindowStartUS, m.WindowEndUS)
	fmt.Printf("  offered=%d processed=%d selected=%d dropped=%d\n",
		m.Offered, m.Processed, m.Selected, m.Dropped)
	fmt.Printf("  flows=%d packets=%d bytes=%d singletons=%d\n",
		m.FlowCounts.Flows, m.FlowCounts.Packets, m.FlowCounts.Bytes, m.FlowCounts.Singletons)
	if len(m.TopK) > 0 {
		fmt.Println("  heavy hitters (estimated packets, +max error):")
		for _, e := range m.TopK {
			fmt.Printf("    %-44s %12d (+%d)\n", flowKeyString(e.Key), e.Count, e.MaxError)
		}
	}
	printHist := func(label string, counts []uint64) {
		var total uint64
		nonzero := 0
		for _, c := range counts {
			total += c
			if c > 0 {
				nonzero++
			}
		}
		fmt.Printf("  %s histogram: %d bins (%d nonzero), %d observations\n",
			label, len(counts), nonzero, total)
		if *hist {
			for b, c := range counts {
				if c > 0 {
					fmt.Printf("    bin %4d: %d\n", b, c)
				}
			}
		}
	}
	printHist("size", m.SizeCounts)
	printHist("iat", m.IatCounts)
}

// flowKeyString renders a heavy-hitter key for the terminal. The
// pipeline packs its top-K keys as the 13-byte 5-tuple the shard
// builds (src IP, dst IP, little-endian ports, protocol); anything
// else — a foreign store, a truncated key — falls back to hex rather
// than spraying raw bytes at the terminal.
func flowKeyString(key string) string {
	if len(key) != 13 {
		return fmt.Sprintf("%x", key)
	}
	k := []byte(key)
	srcPort := uint16(k[8]) | uint16(k[9])<<8
	dstPort := uint16(k[10]) | uint16(k[11])<<8
	return fmt.Sprintf("%d.%d.%d.%d:%d > %d.%d.%d.%d:%d proto %d",
		k[0], k[1], k[2], k[3], srcPort,
		k[4], k[5], k[6], k[7], dstPort, k[12])
}

// windowLine renders one per-window summary with its φ-scores —
// φ-family metrics do not merge across windows (see MergeWire), so the
// per-window lines are where scores are reported.
func windowLine(s *collect.Snapshot) string {
	line := fmt.Sprintf("window %s/%d [%dus,%dus)", s.Node, s.Seq, s.WindowStartUS, s.WindowEndUS)
	if s.Final {
		line += " final"
	}
	line += fmt.Sprintf(": selected=%d flows=%d", s.Selected, s.FlowCounts.Flows)
	if s.SizeReport != nil {
		line += fmt.Sprintf(" phi[size]=%.4f", s.SizeReport.Phi)
	}
	if s.IatReport != nil {
		line += fmt.Sprintf(" phi[iat]=%.4f", s.IatReport.Phi)
	}
	return line
}
