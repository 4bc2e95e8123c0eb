package collect

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"netsample/internal/arts"
	"netsample/internal/dist"
	"netsample/internal/faultnet"
)

// chaosSchedules is the number of distinct seeded fault schedules the
// soak drives the agent/collector pair through. Each schedule is a pure
// function of its seed, so any failure replays with `-run
// TestChaosSoakConservation` and the seed from the failure message.
const chaosSchedules = 1000

// chaosWindows is how many windows each schedule's source cuts.
const chaosWindows = 3

// steppingSource is a node's pipeline reduced to its window cuts: cut
// makes a window the latest, as a pipeline's window barrier does, and
// the agent serves it until the next cut.
type steppingSource struct {
	mu     sync.Mutex
	latest *Snapshot
}

func (s *steppingSource) cut(snap *Snapshot) {
	s.mu.Lock()
	s.latest = snap
	s.mu.Unlock()
}

func (s *steppingSource) LatestSnapshot() (*Snapshot, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.latest, s.latest != nil
}

// runChaosSchedule drives one agent/collector pair through one seeded
// fault schedule and checks the conservation invariant: every window
// the source cuts is accepted exactly once after seq dedup, byte for
// byte as the source served it, so the accepted windows' offered counts
// sum to the total cut. The source moves to the next window only after
// an accepted poll, and sometimes polls a window twice, so the dedup
// has duplicates to drop. It returns how many connections the schedule
// actually faulted, so the soak can prove it exercised failures rather
// than a string of clean runs.
//
// The injector's fault budget (4) is strictly below the number of polls
// each window's poll loop may issue, so once the budget is spent every
// further connection is clean and each loop must terminate.
func runChaosSchedule(t *testing.T, seed uint64) int {
	t.Helper()
	noop := func(time.Duration) {}

	src := &steppingSource{}
	agent := NewAgent("chaos-node", arts.T1)
	agent.Snapshots = src
	agent.Sleep = noop
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	inj := faultnet.NewInjector(seed*0x9E3779B97F4A7C15+1, faultnet.Config{
		FaultProb: 0.75,
		Budget:    4,
	})
	inj.Sleep = noop
	addr := agent.ServeListener(inj.Listener(ln)).String()
	defer agent.Close()

	col := &Collector{
		Timeout: 5 * time.Second,
		Retries: 6,
		Backoff: time.Millisecond,
		Jitter:  dist.NewRNG(seed ^ 0xC2B2AE3D27D4EB4F),
		Sleep:   noop,
	}

	// pollUntil retries whole polls: a poll can fail terminally when a
	// fault corrupts a frame's version byte (the peer answers with, or
	// reads, a typed, non-retryable error), but each such failure burns
	// fault budget, so success is reached within a few rounds.
	pollUntil := func() *Snapshot {
		for tries := 0; tries < 12; tries++ {
			snap, err := col.PollSnapshot(addr)
			if err == nil {
				return snap
			}
		}
		t.Fatalf("seed %d: poll never succeeded with fault budget %d", seed, 4)
		return nil
	}

	rng := dist.NewRNG(seed)
	served := make(map[uint64][]byte) // seq → payload the source served
	accepted := make(map[uint64]int)  // seq → times accepted after dedup
	var cutOffered, acceptedOffered, lastSeq uint64
	for seq := uint64(1); seq <= chaosWindows; seq++ {
		offered := uint64(5 + rng.IntN(12))
		snap := &Snapshot{
			Node: "chaos-node", Seq: seq, Shards: 1,
			WindowStartUS: int64(seq-1) * 1_000_000, WindowEndUS: int64(seq) * 1_000_000,
			Offered: offered, Processed: offered, Selected: offered / 2,
		}
		payload, err := EncodeSnapshot(snap)
		if err != nil {
			t.Fatal(err)
		}
		served[seq] = payload
		cutOffered += offered
		src.cut(snap)
		for polls := 1 + rng.IntN(2); polls > 0; polls-- {
			got := pollUntil()
			re, err := EncodeSnapshot(got)
			if err != nil || !bytes.Equal(re, served[got.Seq]) {
				t.Fatalf("seed %d window %d: accepted snapshot seq %d is not the bytes served (%v)", seed, seq, got.Seq, err)
			}
			if got.Seq <= lastSeq {
				continue // a window already collected: the dedup drops it
			}
			lastSeq = got.Seq
			accepted[got.Seq]++
			acceptedOffered += got.Offered
		}
	}

	for seq := uint64(1); seq <= chaosWindows; seq++ {
		if accepted[seq] != 1 {
			t.Errorf("seed %d: window %d accepted %d times, want exactly once (%v)", seed, seq, accepted[seq], accepted)
		}
	}
	if acceptedOffered != cutOffered {
		t.Errorf("seed %d: conservation violated: windows cut %d offered packets, accepted windows carried %d",
			seed, cutOffered, acceptedOffered)
	}
	return inj.Faulted()
}

// TestChaosSoakConservation drives the agent/collector pair through
// many seeded fault schedules — dropped responses, mid-frame resets,
// partial writes, corrupted headers, delays — and asserts that the
// snapshot plane survives every one: each cut window is accepted
// exactly once after seq dedup, byte-identical to what the node served
// (DESIGN.md §6). Schedules are sharded across parallel subtests;
// every schedule is deterministic in its seed.
func TestChaosSoakConservation(t *testing.T) {
	n := chaosSchedules
	if testing.Short() {
		n = 120
	}
	const shards = 8
	var faulted atomic.Int64
	for s := 0; s < shards; s++ {
		s := s
		t.Run(fmt.Sprintf("shard%d", s), func(t *testing.T) {
			t.Parallel()
			for seed := s; seed < n; seed += shards {
				faulted.Add(int64(runChaosSchedule(t, uint64(seed))))
			}
		})
	}
	t.Cleanup(func() {
		// With FaultProb 0.75 and budget 4 the soak should average well
		// over one faulted connection per schedule; anywhere near zero
		// means the harness stopped injecting and the soak proves
		// nothing.
		if got := faulted.Load(); got < int64(n) {
			t.Errorf("only %d faulted connections across %d schedules: chaos harness inactive", got, n)
		}
	})
}
