// Package atomicalign holds the alignment hazard of the retired
// atomicalign rule: 64-bit sync/atomic function calls on fields at a
// 4-byte offset under 32-bit layout. The typedatomic rule, which replaced
// it, reports every such call.
package atomicalign

import "sync/atomic"

// counters places a 4-byte field before the 64-bit atomic, leaving hits
// at offset 4 on 386/arm: AddUint64 panics there.
type counters struct {
	ready uint32
	hits  uint64
}

func bump(c *counters) {
	atomic.AddUint64(&c.hits, 1) // want `atomic.AddUint64 on a plain variable`
}

// window is aligned on its own (seq at offset 0)...
type window struct {
	seq uint64
}

func stamp(w *window) {
	atomic.StoreUint64(&w.seq, 1) // want `atomic.StoreUint64 on a plain variable`
}

// ...but slot embeds it at offset 4, breaking seq's alignment.
type slot struct {
	kind uint32
	w    window
}
