package online

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"netsample/internal/dist"
	"netsample/internal/trace"
	"netsample/internal/traffgen"
)

// offerAll runs a streaming sampler over a trace and collects selected
// indices.
func offerAll(s Sampler, tr *trace.Trace) []int {
	var out []int
	for i, p := range tr.Packets {
		if s.Offer(p.Time) {
			out = append(out, i)
		}
	}
	return out
}

func genTrace(t testing.TB, seed uint64) *trace.Trace {
	t.Helper()
	tr, err := traffgen.Generate(traffgen.SmallTrace(seed))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestNewSystematicValidation(t *testing.T) {
	if _, err := NewSystematic(0, 0); err != ErrBadGranularity {
		t.Error("k=0 accepted")
	}
	if _, err := NewSystematic(5, 5); !errors.Is(err, ErrBadGranularity) {
		t.Error("offset >= k accepted")
	}
	if _, err := NewSystematic(5, -1); !errors.Is(err, ErrBadGranularity) {
		t.Error("negative offset accepted")
	}
	// k is fine here: the message has to say it is the offset, and its range.
	if _, err := NewSystematic(5, 7); err == nil || !strings.Contains(err.Error(), "offset 7 outside [0, 5)") {
		t.Errorf("out-of-range offset reported as %v", err)
	}
}

func TestStreamingSystematicReset(t *testing.T) {
	s, err := NewSystematic(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	var first []bool
	for i := 0; i < 6; i++ {
		first = append(first, s.Offer(int64(i)))
	}
	s.Reset()
	for i := 0; i < 6; i++ {
		if s.Offer(int64(i)) != first[i] {
			t.Fatalf("reset did not restore phase at %d", i)
		}
	}
}

func TestStreamingStratifiedInvariants(t *testing.T) {
	tr := genTrace(t, 2)
	const k = 50
	s, err := NewStratified(k, dist.NewRNG(9))
	if err != nil {
		t.Fatal(err)
	}
	idx := offerAll(s, tr)
	full := tr.Len() / k
	// One selection per full bucket; the tail bucket may or may not fire.
	if len(idx) < full || len(idx) > full+1 {
		t.Fatalf("selections = %d, want %d or %d", len(idx), full, full+1)
	}
	for i := 0; i < full; i++ {
		if idx[i] < i*k || idx[i] >= (i+1)*k {
			t.Fatalf("selection %d = %d outside bucket [%d,%d)", i, idx[i], i*k, (i+1)*k)
		}
	}
}

func TestStreamingStratifiedValidation(t *testing.T) {
	if _, err := NewStratified(0, dist.NewRNG(1)); err != ErrBadGranularity {
		t.Error("k=0 accepted")
	}
}

func TestStreamingStratifiedUniformity(t *testing.T) {
	// Within a bucket, each position should be equally likely.
	const k = 8
	counts := make([]int, k)
	r := dist.NewRNG(77)
	const buckets = 40000
	s, err := NewStratified(k, r)
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < buckets; b++ {
		for p := 0; p < k; p++ {
			if s.Offer(0) {
				counts[p]++
			}
		}
	}
	for p, c := range counts {
		f := float64(c) / buckets
		if f < 0.11 || f > 0.14 {
			t.Errorf("position %d frequency %v, want 0.125", p, f)
		}
	}
}

func TestStreamingSystematicTimerValidation(t *testing.T) {
	if _, err := NewSystematicTimer(0, 0); err != ErrBadPeriod {
		t.Error("zero period accepted")
	}
}

func TestStreamingStratifiedTimerValidation(t *testing.T) {
	if _, err := NewStratifiedTimer(0, dist.NewRNG(1)); err != ErrBadPeriod {
		t.Error("zero period accepted")
	}
}

func TestStreamingSamplersProperty(t *testing.T) {
	// Selection counts stay within one of N/k for systematic, for any
	// trace shape.
	f := func(seed int64) bool {
		r := dist.NewRNG(uint64(seed))
		n := 1 + r.IntN(3000)
		k := 1 + r.IntN(60)
		off := r.IntN(k)
		s, err := NewSystematic(k, off)
		if err != nil {
			return false
		}
		count := 0
		for i := 0; i < n; i++ {
			if s.Offer(int64(i)) {
				count++
			}
		}
		want := 0
		if n > off {
			want = (n - off + k - 1) / k
		}
		return count == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNewByMethodName(t *testing.T) {
	for method, want := range map[string]string{
		"systematic":       "*online.Systematic",
		"stratified":       "*online.Stratified",
		"systematic-timer": "*online.SystematicTimer",
		"stratified-timer": "*online.StratifiedTimer",
	} {
		s, err := New(method, 10, 1000, dist.NewRNG(1))
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		if got := fmt.Sprintf("%T", s); got != want {
			t.Errorf("%s built %s", method, got)
		}
	}
	if _, err := New("adaptive", 10, 1000, dist.NewRNG(1)); err == nil {
		t.Error("unknown method accepted")
	}
	// Each family rejects only its own parameter.
	if _, err := New("systematic", 10, 0, nil); err != nil {
		t.Errorf("systematic read the period: %v", err)
	}
	if _, err := New("systematic-timer", 0, 1000, nil); err != nil {
		t.Errorf("systematic-timer read k: %v", err)
	}
	if _, err := New("stratified-timer", 10, 0, dist.NewRNG(1)); !errors.Is(err, ErrBadPeriod) {
		t.Errorf("stratified-timer with no period: %v", err)
	}
}
