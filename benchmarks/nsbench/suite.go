package main

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"strings"
	"time"

	"netsample/internal/experiment"
	"netsample/internal/trace"
)

// Matrix parameters of the paper-suite workload: nsd's default
// granularity scale over two-minute scenario traces.
const (
	matrixDuration = 2 * time.Minute
	matrixK        = 10
	// suiteArtifacts is how many tables and figures experiment.All
	// renders; the matrix is one more.
	suiteArtifacts = 27
)

// suiteIter is one iteration of the paper-suite workload.
type suiteIter struct {
	SuiteNS  int64 // experiment.All + WriteAll
	MatrixNS int64 // experiment.Matrix (+ its render)
	Results  int
	// Digest is the SHA-256 of everything rendered, suite then matrix.
	Digest [32]byte
	// Figure 8's mean φ over granularities, by method class.
	PacketPhi, TimerPhi float64
	// Heap allocations of each half (MemStats deltas).
	SuiteMallocs, MatrixMallocs uint64
	Failures                    []string
}

// runSuiteIter runs the whole batch evaluator once over tr: every
// table and figure rendered as text, then the scenario × sampler
// matrix. The renders go to a hash instead of io.Discard so that
// iterations can be compared bit for bit.
func runSuiteIter(tr *tracer, lap int, pop *trace.Trace, seed uint64) *suiteIter {
	it := &suiteIter{}
	h := sha256.New()
	var m0, m1, m2 runtime.MemStats
	runtime.ReadMemStats(&m0)
	lapSpan := tr.begin("suite", noSpan, lap)

	t0 := time.Now()
	id := tr.begin("experiment.All", lapSpan, lap)
	results, err := experiment.All(pop)
	tr.end(id)
	if err != nil {
		it.Failures = append(it.Failures, fmt.Sprintf("experiment.All: %v", err))
	} else {
		id = tr.begin("experiment.WriteAll", lapSpan, lap)
		err = experiment.WriteAll(h, results)
		tr.end(id)
		if err != nil {
			it.Failures = append(it.Failures, fmt.Sprintf("experiment.WriteAll: %v", err))
		}
	}
	it.SuiteNS = time.Since(t0).Nanoseconds()
	it.Results = len(results)
	runtime.ReadMemStats(&m1)

	t1 := time.Now()
	id = tr.begin("experiment.Matrix", lapSpan, lap)
	mx, err := experiment.Matrix(seed, matrixDuration, matrixK)
	if err == nil {
		err = mx.WriteText(h)
		it.Results++
	}
	tr.end(id)
	if err != nil {
		it.Failures = append(it.Failures, fmt.Sprintf("experiment.Matrix: %v", err))
	}
	it.MatrixNS = time.Since(t1).Nanoseconds()
	tr.end(lapSpan)
	runtime.ReadMemStats(&m2)
	it.SuiteMallocs = m1.Mallocs - m0.Mallocs
	it.MatrixMallocs = m2.Mallocs - m1.Mallocs
	h.Sum(it.Digest[:0])

	for _, r := range results {
		if f8, ok := r.(*experiment.MethodsFigureResult); ok && f8.Figure == "figure8" {
			it.PacketPhi, it.TimerPhi = classPhi(f8)
		}
	}
	return it
}

// classPhi averages Figure 8's mean φ over granularities and methods,
// separately for the packet-driven and the timer-driven classes.
func classPhi(f *experiment.MethodsFigureResult) (packet, timer float64) {
	var np, nt int
	for _, s := range f.Series {
		for _, phi := range s.Means {
			if strings.HasSuffix(s.Method, "/timer") {
				timer += phi
				nt++
			} else {
				packet += phi
				np++
			}
		}
	}
	if np > 0 {
		packet /= float64(np)
	}
	if nt > 0 {
		timer /= float64(nt)
	}
	return packet, timer
}

// checkSuiteIter checks one iteration against the first: every
// artifact rendered, the paper's headline ordering (packet-driven
// methods beat timer-driven ones on Figure 8), and output bit-identical
// to the first iteration's. Each artifact is one operation.
func checkSuiteIter(first, it *suiteIter) (failed int, why []string) {
	fail := func(format string, args ...any) {
		failed++
		why = append(why, fmt.Sprintf(format, args...))
	}
	for _, f := range it.Failures {
		fail("%s", f)
	}
	if it.Results != suiteArtifacts+1 {
		fail("%d artifacts rendered, want %d", it.Results, suiteArtifacts+1)
	}
	if !(it.PacketPhi < it.TimerPhi) {
		fail("figure 8: packet-class phi %.4f not below timer-class phi %.4f", it.PacketPhi, it.TimerPhi)
	}
	if it.Digest != first.Digest {
		fail("rendered output differs from the first iteration's")
	}
	return failed, why
}
