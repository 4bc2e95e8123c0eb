package core

import (
	"runtime"
	"sync"

	"netsample/internal/dist"
)

// ReplicateParallel runs a sampler's replications across a worker pool.
// Results are identical to Replicate with the same base seed regardless
// of scheduling: each replication derives its RNG deterministically from
// (seed, replication index) rather than from a shared stream.
//
// Each worker owns a Scorer and one reseedable RNG, so a replication
// makes zero steady-state allocations.
//
// The paper's figure sweeps score hundreds of independent samples; on a
// multicore host this cuts the wall-clock of the full experiment suite
// roughly by the core count.
func ReplicateParallel(e *Evaluator, s Sampler, n int, seed uint64) ([]Replication, error) {
	if n <= 0 {
		return nil, nil
	}
	out := make([]Replication, n)
	errs := make([]error, n)
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Worker-local: the RNG is declared inside the goroutine and
			// reseeded per replication, never shared across goroutines.
			r := dist.NewRNG(0)
			sc := e.NewScorer()
			visit := sc.Visit
			for i := range next {
				r.Reseed(replicationSeed(seed, i))
				sc.Reset()
				if err := s.SelectEach(e.pop, r, visit); err != nil {
					errs[i] = err
					continue
				}
				rep, err := sc.Report()
				if err != nil {
					errs[i] = err
					continue
				}
				out[i] = Replication{SampleSize: sc.SampleSize(), Report: rep}
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// replicationSeed derives the deterministic per-replication seed.
func replicationSeed(seed uint64, i int) uint64 {
	return seed ^ (0x9e3779b97f4a7c15 * uint64(i+1))
}
