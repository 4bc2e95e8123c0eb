// Package fanout splits one packet-sized job over GOMAXPROCS workers:
// the trace generator's staging and sort, and an evaluator's population
// count. Both take the same worker count for the same size, so the
// threshold lives here.
package fanout

import (
	"runtime"
	"sync"
)

// MinPackets is the job size in packets from which work is split over
// GOMAXPROCS workers. Below it one worker does it all, with no
// goroutine.
const MinPackets = 1 << 18

// Workers is the worker count for a job of n packets.
func Workers(n int) int {
	if n < MinPackets {
		return 1
	}
	return runtime.GOMAXPROCS(0)
}

// Run calls work(0) … work(workers−1) concurrently — work(0) on the
// calling goroutine — and returns when every call has.
func Run(workers int, work func(w int)) {
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go do(&wg, work, w)
	}
	work(0)
	wg.Wait()
}

// do is one of Run's goroutines.
func do(wg *sync.WaitGroup, work func(w int), w int) {
	defer wg.Done()
	work(w)
}
