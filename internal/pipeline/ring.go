package pipeline

import (
	"runtime"
	"sync/atomic"
)

// spsc is a bounded lock-free single-producer/single-consumer ring
// queue: the fixed wiring of the pipeline's fan-out tree. Exactly one
// goroutine may call the producer methods (tryPush, push, close) and
// exactly one the consumer methods (peek, advance, pop) — the SPSC
// restriction is what lets every operation be one slot write plus one
// atomic cursor store, with no CAS loops and no mutex in the hot path.
//
// The two cursors live on separate cache lines so the producer's tail
// stores never invalidate the consumer's head line and vice versa; a
// push in the common (non-contended) case touches only the slot and
// the tail line.
//
// Waiting is spin-then-park: a run of runtime.Gosched yields — the
// cheap path when the peer is actively draining, and the polite one
// when goroutines outnumber cores — then the waiter publishes a parked
// flag and blocks on a one-token wake channel. The peer checks the
// flag after every cursor move; flag-then-recheck on the waiter side
// and move-then-flag-check on the waker side close the lost-wakeup
// race, and a stale token at worst causes one spurious recheck.
type spsc[T any] struct {
	slots []T
	mask  uint64

	_    [64]byte // keep head and tail on distinct cache lines
	head atomic.Uint64
	_    [64]byte
	tail atomic.Uint64
	_    [64]byte

	closed atomic.Bool

	prodParked atomic.Bool
	consParked atomic.Bool
	prodWake   chan struct{}
	consWake   chan struct{}

	// prodSpin/consSpin are each side's spin budget (see spinState).
	prodSpin spinState
	consSpin spinState
}

// newSPSC builds a ring holding at least capacity elements (rounded up
// to a power of two for mask indexing).
func newSPSC[T any](capacity int) *spsc[T] {
	if capacity < 1 {
		capacity = 1
	}
	n := 1
	for n < capacity {
		n <<= 1
	}
	return &spsc[T]{
		slots:    make([]T, n),
		mask:     uint64(n - 1),
		prodWake: make(chan struct{}, 1),
		consWake: make(chan struct{}, 1),
		prodSpin: newSpinState(),
		consSpin: newSpinState(),
	}
}

// tryPush appends v without blocking, reporting false if the ring is
// full. Producer goroutine only.
func (q *spsc[T]) tryPush(v T) bool {
	t := q.tail.Load()
	if t-q.head.Load() > q.mask {
		return false
	}
	q.slots[t&q.mask] = v
	q.tail.Store(t + 1)
	q.wakeConsumer()
	return true
}

// push appends v, spinning then parking while the ring is full.
// Producer goroutine only.
func (q *spsc[T]) push(v T) {
	spins := 0
	for {
		if q.tryPush(v) {
			return
		}
		if spins < q.prodSpin.budget {
			spins++
			runtime.Gosched()
			continue
		}
		q.prodParked.Store(true)
		if q.tail.Load()-q.head.Load() <= q.mask {
			// Space appeared between the failed try and the park: un-park
			// and retry. A token the consumer may have sent meanwhile stays
			// in the channel and at worst wakes a future park early.
			q.prodParked.Store(false)
			spins = 0
			continue
		}
		<-q.prodWake
		q.prodParked.Store(false)
		spins = 0
	}
}

// peek blocks until a value is available and returns a pointer to the
// head slot without consuming it, or (nil, false) once the ring is
// closed and drained. The pointer is valid until advance. Consumer
// goroutine only.
func (q *spsc[T]) peek() (*T, bool) {
	spins := 0
	for {
		h := q.head.Load()
		if q.tail.Load() > h {
			return &q.slots[h&q.mask], true
		}
		if q.closed.Load() {
			// Re-check: the close and the final push race benignly, but a
			// push always completes before close is called.
			if q.tail.Load() > h {
				return &q.slots[h&q.mask], true
			}
			return nil, false
		}
		if spins < q.consSpin.budget {
			spins++
			runtime.Gosched()
			continue
		}
		q.consParked.Store(true)
		if q.tail.Load() > h || q.closed.Load() {
			q.consParked.Store(false)
			spins = 0
			continue
		}
		<-q.consWake
		q.consParked.Store(false)
		spins = 0
	}
}

// advance consumes the slot last returned by peek. Consumer goroutine
// only; calling it without a preceding successful peek is a bug.
func (q *spsc[T]) advance() {
	h := q.head.Load()
	var zero T
	q.slots[h&q.mask] = zero // drop references before the producer reuses the slot
	q.head.Store(h + 1)
	q.wakeProducer()
}

// pop is peek+advance: it blocks for the next value, consuming it.
func (q *spsc[T]) pop() (T, bool) {
	p, ok := q.peek()
	if !ok {
		var zero T
		return zero, false
	}
	v := *p
	q.advance()
	return v, true
}

// close marks the stream complete. Producer goroutine only; push after
// close is a bug. The consumer drains remaining values, then peek/pop
// report false.
func (q *spsc[T]) close() {
	q.closed.Store(true)
	q.wakeConsumer()
}

// wakeConsumer hands a token to a parked consumer. The Load-then-Swap
// keeps the common case (peer running) to one shared read.
func (q *spsc[T]) wakeConsumer() {
	if q.consParked.Load() && q.consParked.Swap(false) {
		select {
		case q.consWake <- struct{}{}:
		default: // a token is already pending; it will wake the consumer
		}
	}
}

// wakeProducer hands a token to a parked producer.
func (q *spsc[T]) wakeProducer() {
	if q.prodParked.Load() && q.prodParked.Swap(false) {
		select {
		case q.prodWake <- struct{}{}:
		default:
		}
	}
}
