// Package atomicfield holds the race hazard of the retired atomicfield
// rule: a field accessed both through sync/atomic functions and plainly.
// The typedatomic rule, which replaced it, reports every such call.
package atomicfield

import "sync/atomic"

// ring mixes atomic and plain access on head: the plain reads and
// writes below race with produce.
type ring struct {
	head uint64
	tail uint64
}

func produce(r *ring) {
	atomic.AddUint64(&r.head, 1) // want `atomic.AddUint64 on a plain variable`
}

func observe(r *ring) uint64 {
	return r.head
}

func reset(r *ring) {
	r.head = 0
	r.tail = 0
}
