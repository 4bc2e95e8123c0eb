// Command noccollect is the NOC-side collector: every cycle it polls
// each agent's latest pipeline window snapshot (nsd serves them; the
// backbone polled every 15 minutes, scale down with -interval) and
// prints one line per node.
//
// Usage:
//
//	noccollect -agents 127.0.0.1:4501,127.0.0.1:4502 [-interval 15s] [-cycles 4]
//	           [-retries 2] [-backoff 50ms] [-max-backoff 2s] [-jitter-seed 1]
//	           [-store DIR] [-store-sync 64]
//
// A snapshot query is read-only, so polls retry transport faults with
// seeded-jitter exponential backoff. Windows are deduplicated by (node,
// seq): a node polled faster than it cuts windows is collected once per
// window. A node that cuts faster than it is polled has windows no poll
// sees; each such gap is named on a line of its own and counted in the
// cycle line's running missed= total, never recovered — nsd -store is
// the lossless record.
//
// With -store, each newly collected window is appended to an
// append-only segment store (internal/store). Query it with nocquery.
// A window the store refuses is counted by the store, not only logged:
// after the last cycle noccollect logs "store: N window(s) not
// persisted" and exits 1, as it does when the store fails to close.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"slices"
	"strings"
	"time"

	"netsample/internal/collect"
	"netsample/internal/dist"
	"netsample/internal/store"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("noccollect: ")

	agents := flag.String("agents", "", "comma-separated agent addresses (required)")
	interval := flag.Duration("interval", 15*time.Second, "poll cycle (15m on the real backbone)")
	cycles := flag.Int("cycles", 0, "number of cycles to run (0 = forever)")
	retries := flag.Int("retries", 2, "extra poll attempts per agent after the first")
	backoff := flag.Duration("backoff", 50*time.Millisecond, "base retry backoff (doubles per attempt)")
	maxBackoff := flag.Duration("max-backoff", 2*time.Second, "retry backoff cap")
	jitterSeed := flag.Uint64("jitter-seed", 1, "seed for retry jitter (deterministic schedules)")
	storeDir := flag.String("store", "", "persist collected window snapshots to this store directory (append-only segment log)")
	storeSync := flag.Int("store-sync", store.DefaultSyncEvery, "store group commit: fsync once per this many snapshots")
	flag.Parse()

	// A negative duration would run as another value: an interval as
	// none (busy-polling), a backoff as an immediate retry, a cap as no
	// cap. An empty address would be polled as a node that always
	// fails, and -store-sync means nothing without -store.
	syncSet := false
	flag.Visit(func(f *flag.Flag) { syncSet = syncSet || f.Name == "store-sync" })
	addrs := strings.Split(*agents, ",")
	if slices.Contains(addrs, "") || *cycles < 0 || *retries < 0 || *storeSync < 1 ||
		syncSet && *storeDir == "" || *interval < 0 || *backoff < 0 || *maxBackoff < 0 {
		flag.Usage()
		os.Exit(2)
	}
	c := collect.NewCollector()
	c.Retries = *retries
	c.Backoff = *backoff
	c.MaxBackoff = *maxBackoff
	c.Jitter = dist.NewRNG(*jitterSeed)

	var sw *store.Writer
	if *storeDir != "" {
		var err error
		sw, err = store.Open(*storeDir, store.Options{SyncEvery: *storeSync})
		if err != nil {
			log.Fatalf("store: %v", err)
		}
	}
	// lastSeq is the newest window collected per node. Seq is 1-based
	// and contiguous, so a poll reading past lastSeq+1 names exactly the
	// windows no poll saw.
	lastSeq := make(map[string]uint64)
	var missed uint64

	for cycle := 1; *cycles == 0 || cycle <= *cycles; cycle++ {
		// An all-failed cycle is an outage to report, not a reason to
		// exit: the next cycle may find the agents back.
		var lines []string
		failed := 0
		for _, addr := range addrs {
			snap, err := c.PollSnapshot(addr)
			if err != nil {
				failed++
				lines = append(lines, fmt.Sprintf("  poll failed: %s: %v", addr, err))
				continue
			}
			seen := lastSeq[snap.Node]
			if snap.Seq > seen+1 {
				missed += snap.Seq - seen - 1
				lines = append(lines, fmt.Sprintf("  node %s: %s cut between polls, not collected",
					snap.Node, windowRange(seen+1, snap.Seq-1)))
			}
			lines = append(lines, "  "+snapshotLine(snap))
			if snap.Seq <= seen {
				continue // already collected
			}
			lastSeq[snap.Node] = snap.Seq
			if sw != nil {
				if err := sw.AppendSnapshot(snap); err != nil {
					log.Printf("store append %s window %d: %v", snap.Node, snap.Seq, err)
				}
			}
		}
		fmt.Printf("--- cycle %d (%d nodes, %d failed, missed=%d) ---\n",
			cycle, len(addrs)-failed, failed, missed)
		for _, l := range lines {
			fmt.Println(l)
		}

		if *cycles != 0 && cycle == *cycles {
			break
		}
		time.Sleep(*interval)
	}
	if sw == nil {
		return
	}
	// Close syncs the tail and reports every window the store did not
	// persist.
	if err := sw.Close(); err != nil {
		log.Print(err)
		os.Exit(1)
	}
}

// windowRange names the windows a through b.
func windowRange(a, b uint64) string {
	if a == b {
		return fmt.Sprintf("window %d", a)
	}
	return fmt.Sprintf("windows %d–%d", a, b)
}

// snapshotLine renders one node's polled window.
func snapshotLine(s *collect.Snapshot) string {
	line := fmt.Sprintf("%s seq=%d [%dus,%dus)", s.Node, s.Seq, s.WindowStartUS, s.WindowEndUS)
	if s.Final {
		line += " final"
	}
	line += fmt.Sprintf(": offered=%d selected=%d dropped=%d", s.Offered, s.Selected, s.Dropped)
	if s.SizeReport != nil {
		line += fmt.Sprintf(" phi[size]=%.4f", s.SizeReport.Phi)
	}
	if s.IatReport != nil {
		line += fmt.Sprintf(" phi[iat]=%.4f", s.IatReport.Phi)
	}
	return line
}
