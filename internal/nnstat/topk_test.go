package nnstat

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"slices"
	"testing"

	"netsample/internal/dist"
)

func TestNewTopKValidation(t *testing.T) {
	if _, err := NewTopK(0); err != ErrBadCapacity {
		t.Error("capacity 0 accepted")
	}
}

func TestTopKExactWhenUnderCapacity(t *testing.T) {
	tk, err := NewTopK(10)
	if err != nil {
		t.Fatal(err)
	}
	tk.AddBytes([]byte("a"), 5)
	tk.AddBytes([]byte("b"), 3)
	tk.AddBytes([]byte("a"), 2)
	top := tk.Top(10)
	if len(top) != 2 {
		t.Fatalf("entries = %d", len(top))
	}
	if top[0].Key != "a" || top[0].Count != 7 || top[0].MaxError != 0 {
		t.Fatalf("top = %+v", top[0])
	}
	if top[1].Key != "b" || top[1].Count != 3 {
		t.Fatalf("second = %+v", top[1])
	}
}

func TestTopKTopNTruncation(t *testing.T) {
	tk, err := NewTopK(10)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		tk.AddBytes([]byte(fmt.Sprint(i)), uint64(i+1))
	}
	if len(tk.Top(3)) != 3 {
		t.Fatal("truncation wrong")
	}
}

func TestTopKSpaceSavingGuarantee(t *testing.T) {
	// A Zipf-ish stream: the sketch must retain every key whose true
	// count exceeds total/capacity, with correct error bounds.
	tk, err := NewTopK(20)
	if err != nil {
		t.Fatal(err)
	}
	r := dist.NewRNG(200)
	truth := map[string]uint64{}
	const n = 200000
	for i := 0; i < n; i++ {
		var key string
		u := r.Float64()
		switch {
		case u < 0.3:
			key = "heavy-0"
		case u < 0.45:
			key = "heavy-1"
		case u < 0.55:
			key = "heavy-2"
		default:
			key = fmt.Sprintf("tail-%d", r.IntN(5000))
		}
		truth[key]++
		tk.AddBytes([]byte(key), 1)
	}
	top := tk.Top(20)
	found := map[string]Entry{}
	for _, e := range top {
		found[e.Key] = e
	}
	for _, heavy := range []string{"heavy-0", "heavy-1", "heavy-2"} {
		e, ok := found[heavy]
		if !ok {
			t.Fatalf("%s missing from sketch", heavy)
		}
		// Count is an overestimate bounded by MaxError.
		if e.Count < truth[heavy] {
			t.Errorf("%s count %d below truth %d", heavy, e.Count, truth[heavy])
		}
		if e.Count-e.MaxError > truth[heavy] {
			t.Errorf("%s lower bound %d above truth %d", heavy, e.Count-e.MaxError, truth[heavy])
		}
	}
	// The three heavies must be the top three.
	if top[0].Key != "heavy-0" || top[1].Key != "heavy-1" || top[2].Key != "heavy-2" {
		t.Fatalf("order wrong: %v %v %v", top[0].Key, top[1].Key, top[2].Key)
	}
}

func TestTopKGuaranteedTop(t *testing.T) {
	tk, err := NewTopK(4)
	if err != nil {
		t.Fatal(err)
	}
	// Dominant key plus churn in the tail: its lower bound
	// (Count-MaxError) must exceed every other counter's upper bound, so
	// the sketch's own error bounds certify it a true heavy hitter.
	r := dist.NewRNG(201)
	for i := 0; i < 20000; i++ {
		if r.Float64() < 0.5 {
			tk.AddBytes([]byte("big"), 1)
		} else {
			tk.AddBytes([]byte(fmt.Sprintf("t%d", r.IntN(500))), 1)
		}
	}
	top := tk.Top(4)
	if top[0].Key != "big" || top[0].Count-top[0].MaxError <= top[1].Count {
		t.Fatalf("big not certified by its bounds: %+v", top)
	}
}

func TestTopKWeightedAdds(t *testing.T) {
	// Sampled recording: weight-k adds must behave like k unit adds.
	tk, err := NewTopK(3)
	if err != nil {
		t.Fatal(err)
	}
	tk.AddBytes([]byte("a"), 50)
	tk.AddBytes([]byte("b"), 100)
	tk.AddBytes([]byte("c"), 25)
	tk.AddBytes([]byte("d"), 200) // evicts c, inherits its count
	top := tk.Top(3)
	if top[0].Key != "d" || top[0].Count != 225 || top[0].MaxError != 25 {
		t.Fatalf("eviction accounting wrong: %+v", top[0])
	}
	// Space-Saving keeps the stream weight: the counters sum to it.
	if sum := top[0].Count + top[1].Count + top[2].Count; sum != 375 {
		t.Fatalf("counters sum to %d, want 375", sum)
	}
}

func TestTopKDeterministicTies(t *testing.T) {
	tk, err := NewTopK(5)
	if err != nil {
		t.Fatal(err)
	}
	tk.AddBytes([]byte("z"), 5)
	tk.AddBytes([]byte("a"), 5)
	top := tk.Top(2)
	if top[0].Key != "a" || top[1].Key != "z" {
		t.Fatalf("tie order wrong: %v %v", top[0].Key, top[1].Key)
	}
}

// TestAddBytesMatchesAdd checks the byte-key hot path against the
// reference sketch's string Add, including eviction behavior — and so
// is the hashed path under a hash as poor as a caller could bring: three
// values, all even, so the keys' bytes alone tell probe-run neighbours
// apart.
func TestAddBytesMatchesAdd(t *testing.T) {
	a := newRefTopK(8)
	b, err := NewTopK(8)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewTopK(8)
	if err != nil {
		t.Fatal(err)
	}
	rng := dist.NewRNG(11)
	buf := make([]byte, 13)
	for i := 0; i < 10_000; i++ {
		// Zipf-ish key space: low ids dominate, tail forces evictions.
		id := rng.IntN(1 + rng.IntN(64))
		for j := range buf {
			buf[j] = byte(id >> (j % 4 * 8))
		}
		a.Add(string(buf), 1)
		b.AddBytes(buf, 1)
		c.AddHashed(uint64(id%3)*2, buf, 1)
	}
	at, bt, ct := a.Top(8), b.Top(8), c.Top(8)
	if !slices.Equal(at, bt) {
		t.Errorf("AddBytes differs from Add:\n%+v\n%+v", bt, at)
	}
	if !slices.Equal(at, ct) {
		t.Errorf("AddHashed differs from Add:\n%+v\n%+v", ct, at)
	}
}

// TestTopAllocatesOnce pins the window cut's report: the entry slice,
// however many entries are asked for. The keys are cut from the
// sketch's report arena, whose one allocation every reportCuts calls
// amortizes below one a call.
func TestTopAllocatesOnce(t *testing.T) {
	tk, err := NewTopK(64)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		tk.AddBytes([]byte(fmt.Sprintf("key-%03d", i%90)), uint64(1+i%7))
	}
	for _, n := range []int{1, 10, 64} {
		var top []Entry
		if avg := testing.AllocsPerRun(100, func() { top = tk.Top(n) }); avg != 1 {
			t.Errorf("Top(%d) allocates %.1f times, want 1", n, avg)
		}
		if len(top) != n {
			t.Errorf("Top(%d) returned %d entries", n, len(top))
		}
	}
}

// TestReportedKeysStayPut holds the report arena to the immutability a
// published window relies on: keys reported earlier read the same after
// the sketch has been reset, refilled and reported from many times
// over, across several fresh arenas.
func TestReportedKeysStayPut(t *testing.T) {
	tk, err := NewTopK(16)
	if err != nil {
		t.Fatal(err)
	}
	type kept struct{ got, want []Entry }
	var reports []kept
	for round := range 300 {
		tk.Reset()
		for i := range 40 {
			tk.AddBytes([]byte(fmt.Sprintf("r%03d-k%02d", round, i%23)), uint64(1+i%5))
		}
		top := tk.Top(10)
		want := make([]Entry, len(top))
		for i, e := range top {
			want[i] = e
			want[i].Key = string([]byte(e.Key))
		}
		reports = append(reports, kept{top, want})
	}
	for round, r := range reports {
		if !slices.Equal(r.got, r.want) {
			t.Fatalf("round %d's report changed after later cuts:\n got %v\nwant %v", round, r.got, r.want)
		}
	}
}

// TestTopNonPositiveN holds every report form to no entries for n <= 0.
func TestTopNonPositiveN(t *testing.T) {
	tk, err := NewTopK(8)
	if err != nil {
		t.Fatal(err)
	}
	tk.AddBytes([]byte("a"), 3)
	tk.AddBytes([]byte("b"), 1)
	for _, tc := range []struct{ n, want int }{{-1, 0}, {0, 0}, {1, 1}} {
		if got := len(tk.Top(tc.n)); got != tc.want {
			t.Errorf("Top(%d) returned %d entries, want %d", tc.n, got, tc.want)
		}
		if got := len(tk.AppendTop(nil, tc.n)); got != tc.want {
			t.Errorf("AppendTop(nil, %d) returned %d entries, want %d", tc.n, got, tc.want)
		}
	}
}

// TestAddBytesDoesNotAllocOnHit pins the alloc-free property the
// pipeline hot path relies on: accounting an existing key makes no
// allocation.
func TestAddBytesDoesNotAllocOnHit(t *testing.T) {
	tk, err := NewTopK(4)
	if err != nil {
		t.Fatal(err)
	}
	key := []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13}
	tk.AddBytes(key, 1) // insert once (sizes the slot's key buffer)
	avg := testing.AllocsPerRun(1000, func() { tk.AddBytes(key, 1) })
	if avg != 0 {
		t.Errorf("AddBytes on existing key allocates %.2f per call", avg)
	}
}

// TestAddBytesDoesNotAllocOnEvict pins the miss path: at capacity every
// unseen key evicts the minimum counter and reuses its buffer — before
// or after a Reset — instead of allocating an entry and a key string.
// Every buffer is carved with keyRoom bytes, so keys whose lengths vary
// up to that (src-dst labels run 15 to 31 bytes) never outgrow one.
func TestAddBytesDoesNotAllocOnEvict(t *testing.T) {
	for _, tc := range []struct {
		name string
		len  func(i uint32) int
	}{
		{"13-byte keys", func(uint32) int { return 13 }},
		{"13-to-31-byte keys", func(i uint32) int { return 13 + int(i*7%19) }},
	} {
		tk, err := NewTopK(128)
		if err != nil {
			t.Fatal(err)
		}
		var key [31]byte
		next := uint32(0)
		miss := func() {
			binary.LittleEndian.PutUint32(key[:], next)
			tk.AddBytes(key[:tc.len(next)], 1)
			next++
		}
		for i := 0; i < 128; i++ {
			miss() // fill: carves every slot's buffer
		}
		if n := mallocs(2000, miss); n != 0 {
			t.Errorf("%s: 2000 evictions at capacity allocate %d times", tc.name, n)
		}
		tk.Reset()
		if n := mallocs(2000, miss); n != 0 {
			t.Errorf("%s: refilling and evicting 2000 times after Reset allocates %d times", tc.name, n)
		}
	}
}

// mallocs counts the heap allocations of n calls of f exactly, where
// testing.AllocsPerRun's integer mean hides fewer than one a call.
func mallocs(n int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range n {
		f()
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestFillCarvesKeysFromOneArena pins the first fill: a fresh sketch's
// key buffers are carved from one arena, so filling every counter with
// fixed-length keys allocates once, not once per counter.
func TestFillCarvesKeysFromOneArena(t *testing.T) {
	const capacity = 128
	sketches := make([]*TopK, 11) // AllocsPerRun's warm-up and ten runs
	for i := range sketches {
		var err error
		if sketches[i], err = NewTopK(capacity); err != nil {
			t.Fatal(err)
		}
	}
	var key [13]byte
	run := 0
	fill := func() {
		tk := sketches[run]
		run++
		for i := uint32(0); i < capacity; i++ {
			binary.LittleEndian.PutUint32(key[:], i)
			tk.AddBytes(key[:], 1)
		}
	}
	if avg := testing.AllocsPerRun(len(sketches)-1, fill); avg > 1 {
		t.Errorf("filling %d counters with 13-byte keys allocates %.2f times, want at most 1", capacity, avg)
	}
}

// TestLongerKeyKeepsNeighbours evicts the first-carved counter for a
// key longer than its buffer: the key must get a buffer of its own, not
// grow over the next counter's key in the arena.
func TestLongerKeyKeepsNeighbours(t *testing.T) {
	tk, err := NewTopK(4)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{}
	for i, w := range []uint64{1, 5, 5, 5} {
		k := fmt.Sprintf("short-key-%03d", i)
		tk.AddBytes([]byte(k), w)
		want[k] = w > 1
	}
	long := "a-key-longer-than-thirteen-bytes"
	tk.AddBytes([]byte(long), 1)
	want[long] = true
	got := tk.Top(4)
	for _, e := range got {
		if !want[e.Key] {
			t.Errorf("Top reports %q, want one of the three survivors or %q", e.Key, long)
		}
	}
	if len(got) != 4 {
		t.Errorf("Top(4) = %d entries, want 4", len(got))
	}
}

// TestTopKReset checks reuse after Reset: the sketch empties but keeps
// working, and repeated windowed use converges to the same results.
func TestTopKReset(t *testing.T) {
	tk, err := NewTopK(4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		tk.AddBytes([]byte(fmt.Sprintf("k%d", i%6)), 1)
	}
	tk.Reset()
	if n := len(tk.Top(10)); n != 0 {
		t.Fatalf("sketch not empty after Reset: %d entries", n)
	}
	tk.AddBytes([]byte("after"), 3)
	top := tk.Top(1)
	if len(top) != 1 || top[0].Key != "after" || top[0].Count != 3 || top[0].MaxError != 0 {
		t.Errorf("post-Reset accounting wrong: %+v", top)
	}
}
