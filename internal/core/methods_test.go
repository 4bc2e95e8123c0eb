package core

import (
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"netsample/internal/dist"
	"netsample/internal/packet"
	"netsample/internal/trace"
)

// uniformTrace builds a trace of n packets spaced evenly gapUS apart.
func uniformTrace(n int, gapUS int64) *trace.Trace {
	tr := &trace.Trace{Start: time.Unix(0, 0).UTC()}
	for i := 0; i < n; i++ {
		tr.Packets = append(tr.Packets, trace.Packet{
			Time: int64(i) * gapUS, Size: uint16(40 + i%512),
			Protocol: packet.ProtoTCP,
		})
	}
	return tr
}

func checkSortedUnique(t *testing.T, idx []int, n int) {
	t.Helper()
	for i, v := range idx {
		if v < 0 || v >= n {
			t.Fatalf("index %d out of range [0,%d)", v, n)
		}
		if i > 0 && v <= idx[i-1] {
			t.Fatalf("indices not strictly increasing at %d: %v <= %v", i, v, idx[i-1])
		}
	}
}

func TestSystematicCountExact(t *testing.T) {
	tr := uniformTrace(10, 1000)
	idx, err := SystematicCount{K: 3}.Select(tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 3, 6, 9}
	if len(idx) != len(want) {
		t.Fatalf("idx = %v", idx)
	}
	for i := range want {
		if idx[i] != want[i] {
			t.Fatalf("idx = %v, want %v", idx, want)
		}
	}
}

func TestSystematicCountOffset(t *testing.T) {
	tr := uniformTrace(10, 1000)
	idx, err := SystematicCount{K: 3, Offset: 2}.Select(tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{2, 5, 8}
	for i := range want {
		if idx[i] != want[i] {
			t.Fatalf("idx = %v, want %v", idx, want)
		}
	}
}

func TestSystematicCountErrors(t *testing.T) {
	tr := uniformTrace(10, 1000)
	if _, err := (SystematicCount{K: 0}).Select(tr, nil); !errors.Is(err, ErrBadGranularity) {
		t.Error("K=0 accepted")
	}
	if _, err := (SystematicCount{K: 3, Offset: 3}).Select(tr, nil); !errors.Is(err, ErrBadGranularity) {
		t.Error("offset >= K accepted")
	}
	if _, err := (SystematicCount{K: 3, Offset: -1}).Select(tr, nil); err == nil {
		t.Error("negative offset accepted")
	}
	empty := &trace.Trace{}
	if _, err := (SystematicCount{K: 3}).Select(empty, nil); !errors.Is(err, ErrEmptyPopulation) {
		t.Error("empty population accepted")
	}
}

func TestSystematicCountSizeProperty(t *testing.T) {
	// Systematic yields ceil((N-offset)/K) picks.
	f := func(seed int64) bool {
		r := dist.NewRNG(uint64(seed))
		n := 1 + r.IntN(2000)
		k := 1 + r.IntN(60)
		off := r.IntN(k)
		tr := uniformTrace(n, 400)
		idx, err := SystematicCount{K: k, Offset: off}.Select(tr, nil)
		if err != nil {
			return false
		}
		want := 0
		if n > off {
			want = (n - off + k - 1) / k
		}
		return len(idx) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStratifiedCountOnePerBucket(t *testing.T) {
	tr := uniformTrace(100, 400)
	r := dist.NewRNG(1)
	idx, err := StratifiedCount{K: 10}.Select(tr, r)
	if err != nil {
		t.Fatal(err)
	}
	if len(idx) != 10 {
		t.Fatalf("picked %d, want 10", len(idx))
	}
	checkSortedUnique(t, idx, 100)
	for i, v := range idx {
		if v < i*10 || v >= (i+1)*10 {
			t.Fatalf("pick %d = %d outside bucket [%d,%d)", i, v, i*10, (i+1)*10)
		}
	}
}

func TestStratifiedCountPartialTail(t *testing.T) {
	tr := uniformTrace(25, 400)
	r := dist.NewRNG(2)
	idx, err := StratifiedCount{K: 10}.Select(tr, r)
	if err != nil {
		t.Fatal(err)
	}
	if len(idx) != 3 {
		t.Fatalf("picked %d, want 3 (two full buckets + tail)", len(idx))
	}
	if idx[2] < 20 || idx[2] >= 25 {
		t.Fatalf("tail pick %d outside [20,25)", idx[2])
	}
}

func TestStratifiedCountUniformWithinBucket(t *testing.T) {
	tr := uniformTrace(10, 400)
	r := dist.NewRNG(3)
	counts := make([]int, 10)
	const reps = 20000
	for i := 0; i < reps; i++ {
		idx, err := StratifiedCount{K: 10}.Select(tr, r)
		if err != nil {
			t.Fatal(err)
		}
		counts[idx[0]]++
	}
	for pos, c := range counts {
		f := float64(c) / reps
		if f < 0.07 || f > 0.13 {
			t.Errorf("position %d frequency %v, want ≈0.1", pos, f)
		}
	}
}

func TestSimpleRandomSizeAndRange(t *testing.T) {
	tr := uniformTrace(1000, 400)
	r := dist.NewRNG(4)
	idx, err := SimpleRandom{K: 50}.Select(tr, r)
	if err != nil {
		t.Fatal(err)
	}
	if len(idx) != 20 {
		t.Fatalf("picked %d, want 20", len(idx))
	}
	checkSortedUnique(t, idx, 1000)
}

func TestSimpleRandomWithoutReplacementProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := dist.NewRNG(uint64(seed))
		n := 1 + r.IntN(500)
		k := 1 + r.IntN(40)
		tr := uniformTrace(n, 400)
		idx, err := SimpleRandom{K: k}.Select(tr, r)
		if err != nil {
			return false
		}
		if len(idx) != (n+k-1)/k {
			return false
		}
		for i := 1; i < len(idx); i++ {
			if idx[i] <= idx[i-1] {
				return false
			}
		}
		return len(idx) == 0 || (idx[0] >= 0 && idx[len(idx)-1] < n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSimpleRandomCoversWholePopulation(t *testing.T) {
	// Across replications every index must be reachable.
	tr := uniformTrace(20, 400)
	r := dist.NewRNG(5)
	seen := make([]bool, 20)
	for i := 0; i < 2000; i++ {
		idx, err := SimpleRandom{K: 4}.Select(tr, r)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range idx {
			seen[v] = true
		}
	}
	for i, s := range seen {
		if !s {
			t.Errorf("index %d never selected", i)
		}
	}
}

func TestSystematicTimerSelectsNextArrival(t *testing.T) {
	// Packets at 0, 1000, 2000, ... and period 2500: ticks at 2500,
	// 5000, 7500... select packets 3 (t=3000), 5 (t=5000), 8 (t=8000)...
	tr := uniformTrace(10, 1000)
	s := SystematicTimer{PeriodUS: 2500, OffsetUS: 2500}
	idx, err := s.Select(tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{3, 5, 8}
	if len(idx) != len(want) {
		t.Fatalf("idx = %v, want %v", idx, want)
	}
	for i := range want {
		if idx[i] != want[i] {
			t.Fatalf("idx = %v, want %v", idx, want)
		}
	}
}

func TestSystematicTimerNoDoubleSelection(t *testing.T) {
	// A long silence followed by a burst: multiple pending ticks must
	// not select the same packet repeatedly.
	tr := &trace.Trace{}
	times := []int64{0, 100, 200, 10_000, 10_100, 10_200}
	for _, ts := range times {
		tr.Packets = append(tr.Packets, trace.Packet{Time: ts, Size: 40})
	}
	s := SystematicTimer{PeriodUS: 1000, OffsetUS: 1000}
	idx, err := s.Select(tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkSortedUnique(t, idx, len(times))
}

// TestTimerSelectCostIgnoresSpan: two packets 2^50 µs apart at a 1 µs
// period are two selections and a handful of operations, not 10^15
// loop iterations — empty buckets are stepped over, never visited.
func TestTimerSelectCostIgnoresSpan(t *testing.T) {
	tr := &trace.Trace{Packets: []trace.Packet{{Time: 0, Size: 40}, {Time: 1 << 50, Size: 40}}}
	for _, s := range []Sampler{SystematicTimer{PeriodUS: 1}, StratifiedTimer{PeriodUS: 1}} {
		idx, err := s.Select(tr, dist.NewRNG(1))
		if err != nil {
			t.Fatal(err)
		}
		if len(idx) != 2 || idx[0] != 0 || idx[1] != 1 {
			t.Errorf("%s selected %v, want both packets", s.Name(), idx)
		}
	}
}

// TestTimerSelectEachZeroAllocs: the streaming sampler a timer method's
// batch form drives lives on SelectEach's stack.
func TestTimerSelectEachZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts perturbed under -race")
	}
	tr := uniformTrace(1000, 400)
	r := dist.NewRNG(3)
	n := 0
	yield := func(int) { n++ }
	for _, s := range []Sampler{SystematicTimer{PeriodUS: 4000}, StratifiedTimer{PeriodUS: 4000}} {
		n = 0
		allocs := testing.AllocsPerRun(20, func() {
			if err := s.SelectEach(tr, r, yield); err != nil {
				panic(err)
			}
		})
		if allocs != 0 || n == 0 {
			t.Errorf("%s SelectEach: %v allocs/op over %d selections, want 0", s.Name(), allocs, n)
		}
	}
}

func TestSystematicTimerErrors(t *testing.T) {
	tr := uniformTrace(5, 1000)
	if _, err := (SystematicTimer{PeriodUS: 0}).Select(tr, nil); !errors.Is(err, ErrBadPeriod) {
		t.Error("zero period accepted")
	}
	if _, err := (SystematicTimer{PeriodUS: 100}).Select(&trace.Trace{}, nil); !errors.Is(err, ErrEmptyPopulation) {
		t.Error("empty population accepted")
	}
}

func TestStratifiedTimerInvariants(t *testing.T) {
	tr := uniformTrace(1000, 400)
	r := dist.NewRNG(6)
	s := StratifiedTimer{PeriodUS: 4000}
	idx, err := s.Select(tr, r)
	if err != nil {
		t.Fatal(err)
	}
	checkSortedUnique(t, idx, 1000)
	// ~one pick per 4000 µs bucket over ~400 ms: about 100 picks.
	if len(idx) < 80 || len(idx) > 110 {
		t.Fatalf("picked %d, want ≈100", len(idx))
	}
}

func TestStratifiedTimerErrors(t *testing.T) {
	tr := uniformTrace(5, 1000)
	r := dist.NewRNG(7)
	if _, err := (StratifiedTimer{PeriodUS: 0}).Select(tr, r); !errors.Is(err, ErrBadPeriod) {
		t.Error("zero period accepted")
	}
	if _, err := (StratifiedTimer{PeriodUS: 100}).Select(&trace.Trace{}, r); !errors.Is(err, ErrEmptyPopulation) {
		t.Error("empty population accepted")
	}
}

func TestPeriodForGranularity(t *testing.T) {
	tr := uniformTrace(101, 1000) // mean gap exactly 1000 µs
	p, err := PeriodForGranularity(tr, 50)
	if err != nil {
		t.Fatal(err)
	}
	if p != 50_000 {
		t.Fatalf("period = %d, want 50000", p)
	}
	if _, err := PeriodForGranularity(tr, 0.5); !errors.Is(err, ErrBadGranularity) {
		t.Error("k<1 accepted")
	}
	if _, err := PeriodForGranularity(&trace.Trace{}, 10); !errors.Is(err, ErrEmptyPopulation) {
		t.Error("empty trace accepted")
	}
	zero := uniformTrace(5, 0)
	if _, err := PeriodForGranularity(zero, 10); !errors.Is(err, ErrEmptyPopulation) {
		t.Error("zero-span trace accepted")
	}
	// A period past int64 µs is refused, not converted to MinInt64 and
	// clamped to 1 µs — a census. The largest k that fits still runs.
	for _, k := range []float64{1 << 62, math.Inf(1), math.NaN()} {
		if p, err := PeriodForGranularity(tr, k); !errors.Is(err, ErrBadGranularity) {
			t.Errorf("k=%g: period %d, %v; want ErrBadGranularity", k, p, err)
		}
	}
	if p, err := PeriodForGranularity(tr, 1<<52); err != nil || p != 1000<<52 {
		t.Errorf("k=2^52: period %d, %v; want %d", p, err, int64(1000)<<52)
	}
	// The O(1) form a stream uses gives the same period from the record
	// count and span alone.
	if p, err := PeriodForSpan(tr.Len(), 100_000, 50); err != nil || p != 50_000 {
		t.Errorf("PeriodForSpan(101, 100000, 50) = %d, %v; want 50000", p, err)
	}
}

func TestTimerConstructors(t *testing.T) {
	tr := uniformTrace(101, 1000)
	st, err := NewSystematicTimer(tr, 50, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.PeriodUS != 50_000 {
		t.Fatalf("systematic timer = %+v", st)
	}
	rt, err := NewStratifiedTimer(tr, 20)
	if err != nil {
		t.Fatal(err)
	}
	if rt.PeriodUS != 20_000 {
		t.Fatalf("stratified timer = %+v", rt)
	}
}

func TestNewByMethodName(t *testing.T) {
	tr := uniformTrace(101, 1000)
	for method, want := range map[string]Sampler{
		"systematic":       SystematicCount{K: 50, Offset: 3},
		"stratified":       StratifiedCount{K: 50},
		"random":           SimpleRandom{K: 50},
		"systematic-timer": SystematicTimer{PeriodUS: 50_000},
		"stratified-timer": StratifiedTimer{PeriodUS: 50_000},
	} {
		offset := 0
		if method == "systematic" {
			offset = 3
		} else if _, err := New(method, tr, 50, 3); err == nil || !strings.Contains(err.Error(), method) {
			t.Errorf("%s with offset 3: %v, want an error naming the method", method, err)
		}
		if got, err := New(method, tr, 50, offset); err != nil || got != want {
			t.Errorf("%s built %+v, %v; want %+v", method, got, err, want)
		}
	}
	if _, err := New("adaptive", tr, 50, 0); err == nil || !strings.Contains(err.Error(), "stratified-timer") {
		t.Errorf("unknown method: %v, want an error listing the names", err)
	}
	if _, err := New("systematic-timer", &trace.Trace{}, 50, 0); !errors.Is(err, ErrEmptyPopulation) {
		t.Errorf("timer method on an empty trace: %v", err)
	}
}

func TestSamplerMetadata(t *testing.T) {
	cases := []struct {
		s    Sampler
		name string
	}{
		{SystematicCount{K: 50}, "systematic/packet"},
		{StratifiedCount{K: 50}, "stratified/packet"},
		{SimpleRandom{K: 50}, "random/packet"},
		{SystematicTimer{PeriodUS: 1000}, "systematic/timer"},
		{StratifiedTimer{PeriodUS: 1000}, "stratified/timer"},
	}
	for _, c := range cases {
		if c.s.Name() != c.name {
			t.Errorf("name = %q, want %q", c.s.Name(), c.name)
		}
	}
}

func TestObservations(t *testing.T) {
	tr := uniformTrace(10, 1000)
	sizes := Observations(tr, TargetSize, []int{0, 3, 7})
	if len(sizes) != 3 || sizes[0] != float64(tr.Packets[0].Size) {
		t.Fatalf("sizes = %v", sizes)
	}
	iat := Observations(tr, TargetInterarrival, []int{0, 3, 7})
	// Index 0 has no predecessor and is skipped; gaps are 1000 µs.
	if len(iat) != 2 || iat[0] != 1000 || iat[1] != 1000 {
		t.Fatalf("iat = %v", iat)
	}
}

func TestTargetString(t *testing.T) {
	if TargetSize.String() != "packet-size" || TargetInterarrival.String() != "interarrival" {
		t.Error("target names wrong")
	}
	if Target(9).String() != "target-9" {
		t.Error("unknown target name wrong")
	}
}
