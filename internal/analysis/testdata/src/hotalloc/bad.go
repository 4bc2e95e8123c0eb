// Package hotalloc is the nslint golden corpus for the hotalloc rule:
// no allocating construct in a //nslint:hotpath closure.
package hotalloc

import "fmt"

// Sink receives scored values; its module implementations are part of
// the closure through interface dispatch.
type Sink interface {
	Consume(v any)
}

type pair struct {
	a, b int
}

type table struct {
	counts map[string]int
	last   string
}

// Hot is a hot-path root: every allocating construct below is a
// finding.
//
//nslint:hotpath
func Hot(xs []int, out []int, tab *table, key []byte, sink Sink, v pair) []int {
	out = append(out, xs...) // want `append may grow its backing array`
	m := map[string]int{}    // want `map literal allocates`
	_ = m
	s := []int{1, 2, 3} // want `slice literal allocates`
	_ = s
	p := &pair{} // want `&composite literal escapes to the heap`
	_ = p
	f := func() {} // want `func literal allocates a closure`
	_ = f
	go spin()                   // want `go statement allocates a goroutine`
	tab.counts["k"] = 1         // want `map write may grow the table`
	_ = string(key)             // want `string\(bytes\) conversion copies`
	_ = tab.counts[string(key)] // free form: immediate map index
	name := string(key[:1])     // want `string\(bytes\) conversion copies`
	_ = name == "k"             // comparing the copy does not undo it
	sink.Consume(v)             // want `boxes the value on the heap`
	return out
}

// Describe shows the make/new/fmt/concat findings on a second root.
//
//nslint:hotpath
func Describe(name string, n int) string {
	buf := make([]byte, 0, 64) // want `make allocates`
	_ = buf
	q := new(pair) // want `new allocates`
	_ = q
	s := fmt.Sprintf("%d", n) // want `fmt.Sprintf allocates`
	return s + name           // want `non-constant string concatenation allocates`
}

// spin is pulled into the closure by Hot's go statement; it must stay
// clean, and is.
func spin() {
	for i := 0; i < 8; i++ {
		_ = i
	}
}

// buffered implements Sink, so it is reachable from Hot through
// interface dispatch: its allocation is still a finding.
type buffered struct {
	vals []any
}

func (b *buffered) Consume(v any) {
	b.vals = append(b.vals, v) // want `append may grow its backing array`
}
