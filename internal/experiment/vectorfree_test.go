package experiment

import (
	"math"
	"runtime"
	"slices"
	"testing"
	"time"

	"netsample/internal/core"
	"netsample/internal/flows"
	"netsample/internal/stats"
	"netsample/internal/trace"
	"netsample/internal/traffgen"
)

// namedTrace is one population the vector-free forms are pinned on.
type namedTrace struct {
	name string
	tr   *trace.Trace
}

// pinPopulations returns the populations of the bit-identity pins: the
// calibrated two minutes, two minutes of FIX-West, every preset
// scenario, an unquantized clock, a population with zero size variance,
// and the degenerate lengths.
func pinPopulations(t *testing.T) []namedTrace {
	t.Helper()
	gen := func(cfg traffgen.Config) *trace.Trace {
		tr, err := traffgen.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	small := testTrace(t)
	pops := []namedTrace{{"small", small}}

	fw := traffgen.FIXWest()
	fw.Duration = 2 * time.Minute
	pops = append(pops, namedTrace{"fixwest", gen(fw)})

	for _, name := range traffgen.ScenarioNames() {
		s, err := traffgen.PresetScenario(name, 7, 30*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := traffgen.GenerateScenario(s)
		if err != nil {
			t.Fatal(err)
		}
		pops = append(pops, namedTrace{name, tr})
	}

	unclocked := traffgen.SmallTrace(12345)
	unclocked.ClockUS = 0
	pops = append(pops, namedTrace{"clock=0", gen(unclocked)})

	equal := &trace.Trace{Start: small.Start, ClockUS: small.ClockUS,
		Packets: append([]trace.Packet(nil), small.Packets...)}
	for i := range equal.Packets {
		equal.Packets[i].Size = 552
	}
	pops = append(pops, namedTrace{"equal-sizes", equal})

	for _, n := range []int{0, 1, 2} {
		pops = append(pops, namedTrace{
			[]string{"n=0", "n=1", "n=2"}[n],
			&trace.Trace{Start: small.Start, ClockUS: small.ClockUS, Packets: small.Packets[:n:n]},
		})
	}
	return pops
}

// sameError reports whether two forms failed alike: both succeeded, or
// both failed with the same message.
func sameError(a, b error) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.Error() == b.Error()
}

var bothTargets = []core.Target{core.TargetSize, core.TargetInterarrival}

// TestProfileMatchesSliceForms pins both parts of the profile, and the
// Table 3 built from it, to Describe and the historical Population over
// the materialized observation vectors (refObservations): every field equal
// with ==, the same error where those fail.
func TestProfileMatchesSliceForms(t *testing.T) {
	for _, pop := range pinPopulations(t) {
		p := core.NewProfile(pop.tr)
		var want [2]stats.PopulationSummary
		var wantErr [2]error
		for _, target := range bothTargets {
			xs := refObservations(pop.tr, target)

			wantD, err := stats.Describe(xs)
			gotD, gotErr := p.Moments(target)
			if !sameError(gotErr, err) || gotD != wantD {
				t.Errorf("%s %s: Moments = %+v, %v; Describe = %+v, %v", pop.name, target, gotD, gotErr, wantD, err)
			}

			want[target], wantErr[target] = refPopulation(xs)
			got, gotErr := p.Summary(target)
			if !sameError(gotErr, wantErr[target]) || got != want[target] {
				t.Errorf("%s %s: Summary = %+v, %v; slice form = %+v, %v",
					pop.name, target, got, gotErr, want[target], wantErr[target])
			}
		}

		t3, err := Table3(p)
		switch {
		case wantErr[0] != nil || wantErr[1] != nil:
			if first := errorsFirst(wantErr[0], wantErr[1]); !sameError(err, first) {
				t.Errorf("%s: Table3 error %v, want %v", pop.name, err, first)
			}
		case err != nil:
			t.Errorf("%s: Table3: %v", pop.name, err)
		case t3.Size != want[0] || t3.Interarrival != want[1] || t3.TotalPackets != pop.tr.Len():
			t.Errorf("%s: Table3 = %+v, want %+v / %+v", pop.name, t3, want[0], want[1])
		}
	}
}

// errorsFirst returns the first non-nil error.
func errorsFirst(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// TestBurstMatchesSliceIDC pins the walked index of dispersion to the
// historical count-vector form at each of Burst's windows.
func TestBurstMatchesSliceIDC(t *testing.T) {
	for _, pop := range pinPopulations(t) {
		times := make([]int64, pop.tr.Len())
		for i, p := range pop.tr.Packets {
			times[i] = p.Time
		}
		windows := []int64{1_000, 10_000, 100_000, 1_000_000, 10_000_000}
		want := make([]float64, len(windows))
		var wantErr error
		for i, w := range windows {
			if want[i], wantErr = refIndexOfDispersion(times, w); wantErr != nil {
				break
			}
		}
		got, gotErr := Burst(pop.tr)
		if !sameError(gotErr, wantErr) {
			t.Errorf("%s: Burst error %v, slice form %v", pop.name, gotErr, wantErr)
		} else if gotErr == nil && (!slices.Equal(got.WindowsUS, windows) || !slices.Equal(got.IDC, want)) {
			t.Errorf("%s: Burst = %+v, slice form %v", pop.name, got, want)
		}
	}
}

// TestTheoryMatchesSingleK pins the multi-granularity diagnostic to five
// historical single-k calls, each of which extracted and described the
// population afresh.
func TestTheoryMatchesSingleK(t *testing.T) {
	for _, pop := range pinPopulations(t) {
		for _, target := range bothTargets {
			ks := []int{2, 10, 50, 250, 1000}
			want := make([]core.EfficiencyDiagnostic, len(ks))
			var wantErr error
			for i, k := range ks {
				if want[i], wantErr = refSystematicEfficiency(pop.tr, target, k); wantErr != nil {
					break
				}
			}
			got, gotErr := Theory(pop.tr, target)
			if !sameError(gotErr, wantErr) {
				t.Errorf("%s %s: Theory error %v, single-k form %v", pop.name, target, gotErr, wantErr)
			} else if gotErr == nil && !slices.Equal(got.Rows, want) {
				t.Errorf("%s %s: Theory = %+v, single-k form %+v", pop.name, target, got.Rows, want)
			}
		}
	}
}

// TestFlowBiasMatchesRecords pins the counted flow view to the
// historical one that decomposed the window and every 1-in-k sub-trace
// into sorted flow records: every count equal, every float equal bit
// for bit (NaN to NaN, should a window hold no flow), the same error.
func TestFlowBiasMatchesRecords(t *testing.T) {
	sameBits := func(a, b []float64) bool {
		return slices.EqualFunc(a, b, func(x, y float64) bool {
			return math.Float64bits(x) == math.Float64bits(y) || math.IsNaN(x) && math.IsNaN(y)
		})
	}
	for _, pop := range pinPopulations(t) {
		want, wantErr := refFlowBias(pop.tr)
		got, gotErr := FlowBias(pop.tr)
		switch {
		case !sameError(gotErr, wantErr):
			t.Errorf("%s: FlowBias error %v, record form %v", pop.name, gotErr, wantErr)
		case gotErr != nil:
		case got.TrueFlows != want.TrueFlows ||
			!sameBits([]float64{got.TrueMeanPkts}, []float64{want.TrueMeanPkts}) ||
			!slices.Equal(got.Granularities, want.Granularities) ||
			!sameBits(got.DetectedFrac, want.DetectedFrac) ||
			!sameBits(got.MeanPktsScale, want.MeanPktsScale):
			t.Errorf("%s: FlowBias = %+v, record form %+v", pop.name, got, want)
		}
	}
}

// bytesAllocated returns the heap bytes f allocates, live or not.
func bytesAllocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestPopulationArtifactsBytes pins what the vector-free forms are for:
// on a population of n packets (8n bytes as one float vector, 24n as a
// copy of the packets) the profile's moments, Burst and the §5 theory
// allocate nothing that grows with n, Table 3 allocates one vector of
// n−1 integer gaps plus the size table, and the flow view allocates
// only its flow counters.
func TestPopulationArtifactsBytes(t *testing.T) {
	tr := testTrace(t)
	n := uint64(tr.Len())
	if 8*n < 256<<10 {
		t.Fatalf("population of %d packets too small to tell a vector from noise", n)
	}
	fail := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}

	if got := bytesAllocated(func() {
		_, err := Burst(tr)
		fail(err)
	}); got > 64<<10 {
		t.Errorf("Burst allocated %d bytes, want <= 64 kB", got)
	}

	p := core.NewProfile(tr)
	if got := bytesAllocated(func() {
		_, err := SampleSizes(p)
		fail(err)
	}); got > 64<<10 {
		t.Errorf("the profile's moments (via SampleSizes) allocated %d bytes of a population vector's %d, want <= 64 kB", got, 8*n)
	}

	if got, limit := bytesAllocated(func() {
		_, err := Table3(p)
		fail(err)
	}), 8*(n-1)+1<<20; got > limit {
		t.Errorf("Table3 allocated %d bytes, want <= 8(n-1) + 1 MB = %d", got, limit)
	}

	for _, target := range bothTargets {
		if got := bytesAllocated(func() {
			_, err := Theory(tr, target)
			fail(err)
		}); got > 64<<10 {
			t.Errorf("Theory(%s) allocated %d bytes of a population vector's %d, want <= 64 kB", target, got, 8*n)
		}
	}

	// FlowBias runs one flows.Counter per granularity over the window's
	// 1-in-k sample. A counter holding K keys has grown its 24-byte slot
	// array by doubling from 8 to at least K slots, and its 4-byte-cell
	// index, kept at most half full, by doubling from 16 to at least 2K
	// cells; everything else it allocates is a few hundred bytes. So the
	// sweep allocates at most the sum over k of those doubling series
	// plus 4 kB, all fixed by the sample's distinct 5-tuples.
	var fb *FlowBiasResult
	got := bytesAllocated(func() {
		var err error
		fb, err = FlowBias(tr)
		fail(err)
	})
	win := window(tr, 1024)
	var limit uint64 = 4 << 10
	for _, k := range fb.Granularities {
		keys := make(map[flows.Key]bool)
		fail(core.SystematicCount{K: k}.SelectEach(win, nil, func(i int) {
			keys[flows.KeyOf(win.Packets[i])] = true
		}))
		limit += 24*doubled(len(keys), 8) + 4*doubled(2*len(keys), 16)
	}
	if copyBytes := 24 * uint64(win.Len()); 2*limit > copyBytes {
		t.Fatalf("flow-counter bound %d bytes is not below half a %d-byte copy of the window: too few packets a key to tell", limit, copyBytes)
	}
	if got > limit {
		t.Errorf("FlowBias allocated %d bytes, want <= %d (its flow counters' slots and index)", got, limit)
	}
}

// doubled is the total length of the arrays a buffer doubling from
// first allocates until it holds n: first + 2·first + … up to the first
// length >= n.
func doubled(n, first int) uint64 {
	total := uint64(first)
	for c := first; c < n; {
		c *= 2
		total += uint64(c)
	}
	return total
}
