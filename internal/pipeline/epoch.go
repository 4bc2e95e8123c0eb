package pipeline

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// epoch is one ingest worker's published sequencing progress: done
// holds one past the highest unit sequence number whose shard-ring
// pushes are all complete. It replaces the former per-unit progress
// markers — where every unit pushed an empty message into every shard
// ring, an O(workers × shards) cross-core broadcast per batch — with
// one atomic store per unit. Shard workers read the counter to learn
// that a run of sequence numbers produced nothing for them (DESIGN.md
// §15); the counter's cache line is read-shared across shards, so a
// unit costs one invalidation instead of shards× ring transfers.
//
// Ordering contract (the whole protocol rests on it): the worker
// stores done = seq+1 only AFTER every ring push for unit seq has
// completed, and Go's atomics are sequentially consistent. A shard
// that loads done > seq and THEN observes a ring empty may conclude
// the ring holds nothing for any sequence below done — the loads must
// happen in that order; see shardWorker.
//
// The sentinel epochClosed (stored after the worker closes its rings)
// both marks worker exit and wakes any shard parked on the counter.
type epoch struct {
	_    [64]byte // keep done off neighboring structs' lines
	done atomic.Uint64
	_    [56]byte

	// Park/wake for shards waiting on done. parked counts parked
	// waiters; advance broadcasts only when it is nonzero, keeping the
	// common case to one extra load. The same flag-then-recheck /
	// store-then-flag-check discipline as the rings' spin-then-park
	// closes the lost-wakeup race (both sides' operations are seq-cst).
	parked atomic.Int32
	mu     sync.Mutex
	cond   *sync.Cond

	// stores counts advance calls. Worker-written plain field, read by
	// tests after the worker is joined; it pins the O(workers) progress
	// bound (TestEpochPublishBound).
	stores uint64
}

// epochClosed is the exit sentinel: no real unit sequence number ever
// reaches it (a stream would need 2^64-1 units).
const epochClosed = ^uint64(0)

func newEpoch() *epoch {
	e := &epoch{}
	e.cond = sync.NewCond(&e.mu)
	return e
}

// advance publishes that every unit with sequence number below v that
// this worker owns is fully visible in its shard rings. One atomic
// store per unit — the entire cross-core progress plane. Producer
// (ingest worker) goroutine only; v must be monotonic.
func (e *epoch) advance(v uint64) {
	e.stores++
	e.done.Store(v)
	if e.parked.Load() != 0 {
		e.wake()
	}
}

// wake broadcasts to parked waiters. Out of line so advance's common
// (nobody parked) path stays tiny.
func (e *epoch) wake() {
	e.mu.Lock()
	e.cond.Broadcast()
	e.mu.Unlock()
}

// wait blocks until the worker's published progress exceeds seq,
// returning the value observed. Spin-then-park; sp is owned by the
// calling shard.
func (e *epoch) wait(seq uint64, sp *spinState) uint64 {
	spins := 0
	for {
		if d := e.done.Load(); d > seq {
			return d
		}
		if spins < sp.budget {
			spins++
			runtime.Gosched()
			continue
		}
		e.parked.Add(1)
		e.mu.Lock()
		for e.done.Load() <= seq {
			// Racing advance: if its store lands before our parked.Add it
			// is seen by the loop condition; if after, it sees parked != 0
			// and broadcasts under mu. Either way no wakeup is lost.
			//nslint:allow mutexhold cond.Wait releases the mutex while parked; this is the canonical blocked wait
			e.cond.Wait()
		}
		e.mu.Unlock()
		e.parked.Add(-1)
		spins = 0
	}
}
