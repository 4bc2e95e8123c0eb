package pipeline

import (
	"sync"
	"testing"
)

// TestRingCapacityRounding checks newSPSC rounds capacities up to the
// next power of two (mask indexing requires it).
func TestRingCapacityRounding(t *testing.T) {
	for _, c := range []struct{ ask, want int }{
		{0, 1}, {1, 1}, {2, 2}, {3, 4}, {7, 8}, {8, 8}, {9, 16},
	} {
		if got := len(newSPSC[int](c.ask).slots); got != c.want {
			t.Errorf("newSPSC(%d) has %d slots, want %d", c.ask, got, c.want)
		}
	}
}

// TestRingFIFO checks single-threaded push/pop ordering and the full /
// empty boundary conditions of tryPush.
func TestRingFIFO(t *testing.T) {
	q := newSPSC[int](4)
	for i := 0; i < 4; i++ {
		if !q.tryPush(i) {
			t.Fatalf("tryPush(%d) failed below capacity", i)
		}
	}
	if q.tryPush(99) {
		t.Fatal("tryPush succeeded on a full ring")
	}
	for i := 0; i < 4; i++ {
		v, ok := q.pop()
		if !ok || v != i {
			t.Fatalf("pop = (%d, %v), want (%d, true)", v, ok, i)
		}
	}
	// Wrap around: interleaved push/pop past the capacity boundary.
	for i := 0; i < 37; i++ {
		if !q.tryPush(i) {
			t.Fatalf("wrap tryPush(%d) failed on empty ring", i)
		}
		v, ok := q.pop()
		if !ok || v != i {
			t.Fatalf("wrap pop = (%d, %v), want (%d, true)", v, ok, i)
		}
	}
}

// TestRingPeekAdvance checks peek exposes the head without consuming
// and advance consumes exactly one slot.
func TestRingPeekAdvance(t *testing.T) {
	q := newSPSC[int](4)
	q.tryPush(7)
	q.tryPush(8)
	for i := 0; i < 2; i++ { // peek must be idempotent
		v, ok := q.peek()
		if !ok || *v != 7 {
			t.Fatalf("peek #%d = (%v, %v), want (&7, true)", i, v, ok)
		}
	}
	q.advance()
	if v, ok := q.peek(); !ok || *v != 8 {
		t.Fatalf("peek after advance = (%v, %v), want (&8, true)", v, ok)
	}
}

// TestRingCloseDrains checks the consumer still sees values pushed
// before close, then gets the closed signal.
func TestRingCloseDrains(t *testing.T) {
	q := newSPSC[int](8)
	q.tryPush(1)
	q.tryPush(2)
	q.close()
	if v, ok := q.pop(); !ok || v != 1 {
		t.Fatalf("pop after close = (%d, %v), want (1, true)", v, ok)
	}
	if v, ok := q.pop(); !ok || v != 2 {
		t.Fatalf("pop after close = (%d, %v), want (2, true)", v, ok)
	}
	if _, ok := q.pop(); ok {
		t.Fatal("pop on closed+drained ring reported a value")
	}
	if _, ok := q.peek(); ok {
		t.Fatal("peek on closed+drained ring reported a value")
	}
}

// TestRingAdvanceClearsSlot checks consumed slots drop their references
// so the producer side cannot keep dead pointers alive.
func TestRingAdvanceClearsSlot(t *testing.T) {
	q := newSPSC[*int](2)
	v := 42
	q.tryPush(&v)
	q.pop()
	if q.slots[0] != nil {
		t.Fatal("advance left a reference in the consumed slot")
	}
}

// TestRingConcurrentStress runs a full producer/consumer pair through
// far more values than the ring holds, exercising the spin-then-park
// waiters and (under -race) the cross-goroutine memory ordering.
func TestRingConcurrentStress(t *testing.T) {
	const n = 200_000
	q := newSPSC[uint64](8)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := uint64(0); i < n; i++ {
			q.push(i)
		}
		q.close()
	}()
	var got uint64
	for {
		v, ok := q.pop()
		if !ok {
			break
		}
		if v != got {
			t.Fatalf("out of order: got %d, want %d", v, got)
		}
		got++
	}
	wg.Wait()
	if got != n {
		t.Fatalf("consumed %d values, want %d", got, n)
	}
}

// TestRingStressSlowConsumer parks the producer repeatedly by draining
// slowly from a tiny ring.
func TestRingStressSlowConsumer(t *testing.T) {
	const n = 50_000
	q := newSPSC[int](1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			q.push(i)
		}
		q.close()
	}()
	count := 0
	for {
		v, ok := q.pop()
		if !ok {
			break
		}
		if v != count {
			t.Fatalf("out of order: got %d, want %d", v, count)
		}
		count++
	}
	<-done
	if count != n {
		t.Fatalf("consumed %d, want %d", count, n)
	}
}

// TestRingParkWakeInterleaving forces the spin-then-park handshake's
// hazard window on every wait: zeroed spin budgets (the spinState test
// hook) make both sides park immediately instead of yielding, so each
// full/empty transition of a capacity-1 ring walks the
// flag-then-recheck / move-then-flag-check protocol — producer parked
// while the consumer drains to empty, consumer parked while the
// producer refills, close racing a parked consumer. Run under -race
// (it is pinned in the CI race matrix) this is the lost-wakeup
// regression test for the ring: a protocol bug deadlocks or misorders
// within a few thousand rounds.
func TestRingParkWakeInterleaving(t *testing.T) {
	const n = 100_000
	q := newSPSC[int](1)
	q.prodSpin = spinState{} // budget 0: park on every full ring
	q.consSpin = spinState{} // budget 0: park on every empty ring
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			q.push(i)
		}
		// Close while the consumer may be parked on an empty ring: the
		// close must wake it so it can observe the drained state.
		q.close()
	}()
	count := 0
	for {
		v, ok := q.pop()
		if !ok {
			break
		}
		if v != count {
			t.Fatalf("out of order: got %d, want %d", v, count)
		}
		count++
	}
	wg.Wait()
	if count != n {
		t.Fatalf("consumed %d, want %d", count, n)
	}
}
