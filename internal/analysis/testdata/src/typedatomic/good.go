package typedatomic

import "sync/atomic"

// typedRing uses the typed wrappers: head has no plain access to race
// with, and tail's atomic.Uint64 self-aligns after the 4-byte field.
type typedRing struct {
	flags uint32
	head  atomic.Uint64
	tail  atomic.Uint64
}

func produceTyped(r *typedRing) {
	r.head.Add(1)
}

func observeTyped(r *typedRing) uint64 {
	return r.head.Load() + r.tail.Load()
}

// latest is a typed pointer and a typed flag: methods, not functions.
type latest struct {
	done atomic.Bool
	val  atomic.Pointer[snapshot]
}

func publish(l *latest, w *snapshot) {
	l.val.Store(w)
	l.done.Store(true)
}
