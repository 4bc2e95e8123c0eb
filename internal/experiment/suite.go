package experiment

import (
	"fmt"
	"io"
	"runtime"
	"sync"

	"netsample/internal/core"
	"netsample/internal/trace"
)

// wrap adapts an experiment constructor to the suite's uniform job
// shape, tagging failures with the experiment's concrete type the way
// the historical serial loop did.
func wrap[T Result](f func() (T, error)) func() (Result, error) {
	return func() (Result, error) {
		r, err := f()
		if err != nil {
			return nil, fmt.Errorf("experiment %T: %w", r, err)
		}
		return r, nil
	}
}

// suiteJobs lists every table and figure of the suite in paper order.
// Each job is self-contained — experiments seed their own internal RNGs
// and never share mutable state — so the jobs can run in any order or
// concurrently and still produce identical results slot by slot.
func suiteJobs(tr *trace.Trace) []func() (Result, error) {
	return []func() (Result, error){
		func() (Result, error) { return Table1(), nil },
		wrap(func() (*Table2Result, error) { return Table2(tr) }),
		wrap(func() (*Table3Result, error) { return Table3(tr) }),
		wrap(func() (*Figure1Result, error) { return Figure1(30, 20, 800) }),
		wrap(Figure2),
		wrap(func() (*Figure3Result, error) { return Figure3(tr) }),
		wrap(func() (*HistogramFigureResult, error) { return Figure4(tr) }),
		wrap(func() (*HistogramFigureResult, error) { return Figure5(tr) }),
		wrap(func() (*Figure6Result, error) { return Figure6(tr) }),
		wrap(func() (*Figure7Result, error) { return Figure7(tr) }),
		wrap(func() (*MethodsFigureResult, error) { return Figure8(tr) }),
		wrap(func() (*MethodsFigureResult, error) { return Figure9(tr) }),
		wrap(func() (*ElapsedFigureResult, error) { return Figure10(tr) }),
		wrap(func() (*ElapsedFigureResult, error) { return Figure11(tr) }),
		wrap(func() (*SampleSizesResult, error) { return SampleSizes(tr) }),
		wrap(func() (*ChiSquareAcceptanceResult, error) { return ChiSquareAcceptance(tr, core.TargetSize) }),
		wrap(func() (*ChiSquareAcceptanceResult, error) { return ChiSquareAcceptance(tr, core.TargetInterarrival) }),
		wrap(func() (*CategoricalFigureResult, error) { return ExtPorts(tr) }),
		wrap(func() (*CategoricalFigureResult, error) { return ExtMatrix(tr) }),
		wrap(func() (*TheoryResult, error) { return Theory(tr, core.TargetSize) }),
		wrap(Adaptive),
		wrap(func() (*FIXWestResult, error) { return FIXWest(tr) }),
		wrap(func() (*BurstResult, error) { return Burst(tr) }),
		wrap(func() (*ArtsHistResult, error) { return ArtsHist(tr) }),
		wrap(func() (*FlowBiasResult, error) { return FlowBias(tr) }),
		wrap(func() (*HeavyHitterResult, error) { return HeavyHitters(tr) }),
		wrap(func() (*ReproCheckResult, error) { return ReproCheck(tr) }),
	}
}

// All runs the complete experiment suite — every table and figure — on
// the given parent trace and returns the results in paper order.
//
// Independent experiments run concurrently across a worker pool, but the
// returned slice is index-addressed by the paper-order job list, so the
// output is byte-identical to running the jobs in order on one goroutine
// (allSerial in suite_ref_test.go, pinned by TestAllMatchesSerial). On
// failure the error of the earliest paper-order failing experiment is
// returned.
func All(tr *trace.Trace) ([]Result, error) {
	jobs := suiteJobs(tr)
	results := make([]Result, len(jobs))
	errs := make([]error, len(jobs))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(jobs) {
		workers = len(jobs)
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				results[i], errs[i] = jobs[i]()
			}
		}()
	}
	for i := range jobs {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// WriteAll renders every result to w, separated by blank lines.
func WriteAll(w io.Writer, results []Result) error {
	for _, r := range results {
		if err := r.WriteText(w); err != nil {
			return err
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}
