package experiment

import (
	"fmt"
	"io"
	"runtime"
	"slices"
	"strings"
	"sync"

	"netsample/internal/core"
	"netsample/internal/trace"
)

// job is one table or figure of the suite: the artifact id its result
// reports, and the runner that produces it from the parent population's
// profile.
type job struct {
	id  string
	run func(p *core.Profile) (Result, error)
}

// onProfile adapts an experiment constructor to the suite's uniform job
// shape, tagging failures with the experiment's concrete type the way
// the historical serial loop did.
func onProfile[T Result](f func(*core.Profile) (T, error)) func(*core.Profile) (Result, error) {
	return func(p *core.Profile) (Result, error) {
		r, err := f(p)
		if err != nil {
			return nil, fmt.Errorf("experiment %T: %w", r, err)
		}
		return r, nil
	}
}

// onTrace is onProfile for the experiments that read the population's
// packets rather than its profile.
func onTrace[T Result](f func(*trace.Trace) (T, error)) func(*core.Profile) (Result, error) {
	return onProfile(func(p *core.Profile) (T, error) { return f(p.Population()) })
}

// suite lists every table and figure in paper order. Each job is
// self-contained — experiments seed their own internal RNGs and share
// nothing mutable; the profile they share computes each of its parts
// once, whichever job asks first — so the jobs can run in any order or
// concurrently and still produce identical results slot by slot.
var suite = []job{
	{"table1", func(*core.Profile) (Result, error) { return Table1(), nil }},
	{"table2", onTrace(Table2)},
	{"table3", onProfile(Table3)},
	{"figure1", onProfile(func(*core.Profile) (*Figure1Result, error) { return Figure1(30, 20, 800) })},
	{"figure2", onProfile(func(*core.Profile) (*Figure2Result, error) { return Figure2() })},
	{"figure3", onTrace(Figure3)},
	{"figure4", onTrace(Figure4)},
	{"figure5", onTrace(Figure5)},
	{"figure6", onTrace(Figure6)},
	{"figure7", onTrace(Figure7)},
	{"figure8", onTrace(Figure8)},
	{"figure9", onTrace(Figure9)},
	{"figure10", onTrace(Figure10)},
	{"figure11", onTrace(Figure11)},
	{"sec5.1", onProfile(SampleSizes)},
	{"sec5.2", onTrace(func(tr *trace.Trace) (*ChiSquareAcceptanceResult, error) {
		return ChiSquareAcceptance(tr, core.TargetSize)
	})},
	{"sec5.2", onTrace(func(tr *trace.Trace) (*ChiSquareAcceptanceResult, error) {
		return ChiSquareAcceptance(tr, core.TargetInterarrival)
	})},
	{"ext-ports", onTrace(ExtPorts)},
	{"ext-matrix", onTrace(ExtMatrix)},
	{"sec5-theory", onTrace(func(tr *trace.Trace) (*TheoryResult, error) { return Theory(tr, core.TargetSize) })},
	{"ext-adaptive", onProfile(func(*core.Profile) (*AdaptiveResult, error) { return Adaptive() })},
	{"ext-fixwest", onTrace(FIXWest)},
	{"ext-burst", onTrace(Burst)},
	{"ext-artshist", onTrace(ArtsHist)},
	{"ext-flows", onTrace(FlowBias)},
	{"ext-heavyhitters", onTrace(HeavyHitters)},
	{"repro-check", onProfile(ReproCheck)},
}

// All runs the complete experiment suite — every table and figure — on
// the given parent trace and returns the results in paper order.
func All(tr *trace.Trace) ([]Result, error) { return runJobs(tr, suite) }

// ablations is the one job All leaves out: the design-choice ablations
// are not a paper artifact, so only Only reaches them.
var ablations = job{"ablations", onTrace(Ablations)}

// Only returns All restricted to the artifacts that carry the given id
// (sec5.2 has two), or the ablations: the runner executes those jobs
// and no others. An id no job carries is an error, reported here —
// before a caller has built the population to run on — with the ids
// that exist.
func Only(id string) (func(tr *trace.Trace) ([]Result, error), error) {
	var jobs []job
	var ids []string
	for _, j := range slices.Concat(suite, []job{ablations}) {
		if j.id == id {
			jobs = append(jobs, j)
		}
		if !slices.Contains(ids, j.id) {
			ids = append(ids, j.id)
		}
	}
	if len(jobs) == 0 {
		return nil, fmt.Errorf("no artifact with id %q (have %s)", id, strings.Join(ids, ", "))
	}
	return func(tr *trace.Trace) ([]Result, error) { return runJobs(tr, jobs) }, nil
}

// runJobs runs jobs over one profile of tr.
//
// Independent experiments run concurrently across a worker pool, but the
// returned slice is index-addressed by the job list, so the output is
// byte-identical to running the jobs in order on one goroutine
// (allSerial in suite_ref_test.go, pinned by TestAllMatchesSerial). On
// failure the error of the earliest failing job in list order is
// returned.
func runJobs(tr *trace.Trace, jobs []job) ([]Result, error) {
	p := core.NewProfile(tr)
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
				results[i], errs[i] = jobs[i].run(p)
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
