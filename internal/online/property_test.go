package online

import (
	"testing"

	"netsample/internal/dist"
)

// adversarialTimestamps builds a timestamp sequence exercising every
// clock pathology the package contract covers: runs of exact
// duplicates, backward steps, forward jumps of several timer periods,
// and excursions below zero. TestTimerSamplersJumpInConstantTime covers
// the unbounded jump.
func adversarialTimestamps(seed uint64, n int, periodUS int64) []int64 {
	rng := dist.NewRNG(seed)
	out := make([]int64, n)
	t := int64(0)
	for i := range out {
		switch rng.IntN(10) {
		case 0, 1, 2: // duplicate: the 400 µs capture clock repeats
			// t unchanged
		case 3, 4: // backward step (NTP slew)
			t -= rng.Int64N(3*periodUS) + 1
		case 5: // forward jump across several buckets
			t += rng.Int64N(8*periodUS) + 1
		default: // ordinary forward progress
			t += rng.Int64N(periodUS/4 + 1)
		}
		out[i] = t
	}
	return out
}

// samplerMakers constructs every Offer-driven sampler fresh; random
// ones get a deterministic child RNG.
func samplerMakers(t *testing.T, seed uint64, periodUS int64) map[string]func() Sampler {
	t.Helper()
	must := func(s Sampler, err error) Sampler {
		t.Helper()
		if err != nil {
			t.Fatalf("constructor: %v", err)
		}
		return s
	}
	return map[string]func() Sampler{
		"systematic": func() Sampler { return must(NewSystematic(50, 7)) },
		"stratified": func() Sampler {
			return must(NewStratified(50, dist.NewRNG(seed)))
		},
		"systematic-timer": func() Sampler {
			return must(NewSystematicTimer(periodUS, 0))
		},
		"stratified-timer": func() Sampler {
			return must(NewStratifiedTimer(periodUS, dist.NewRNG(seed)))
		},
	}
}

// TestSamplersTolerateAdversarialTimestamps drives every streaming
// sampler through non-monotonic, duplicated, and negative timestamps:
// no panics, each Offer decides exactly one packet (so double-selection
// is impossible by construction), count-driven selection patterns are
// timestamp-independent, and the whole decision sequence is a pure
// function of the seed.
func TestSamplersTolerateAdversarialTimestamps(t *testing.T) {
	const (
		n        = 20_000
		periodUS = int64(5_000)
	)
	for _, seed := range []uint64{1, 2, 3, 99} {
		ts := adversarialTimestamps(seed, n, periodUS)
		for name, mk := range samplerMakers(t, seed, periodUS) {
			t.Run(name, func(t *testing.T) {
				run := func() []bool {
					s := mk()
					decisions := make([]bool, n)
					for i, tUS := range ts {
						decisions[i] = s.Offer(tUS)
					}
					return decisions
				}
				first := run()
				again := run()
				selected := 0
				for i := range first {
					if first[i] != again[i] {
						t.Fatalf("seed %d offer %d: decision not deterministic", seed, i)
					}
					if first[i] {
						selected++
					}
				}
				if selected > n {
					t.Fatalf("selected %d of %d offers", selected, n)
				}
				switch name {
				case "systematic":
					// Count-driven: timestamps are ignored, so the pattern is
					// exactly every 50th offer starting at index 7.
					want := (n - 7 + 49) / 50
					if selected != want {
						t.Errorf("seed %d: systematic selected %d, want %d", seed, selected, want)
					}
					for i, d := range first {
						if d != (i%50 == 7) {
							t.Errorf("systematic decision %d = %v under adversarial clock", i, d)
							break
						}
					}
				case "stratified":
					// Exactly one selection per complete 50-offer bucket.
					for b := 0; b+50 <= n; b += 50 {
						got := 0
						for _, d := range first[b : b+50] {
							if d {
								got++
							}
						}
						if got != 1 {
							t.Errorf("seed %d: stratified bucket %d selected %d, want 1", seed, b/50, got)
							break
						}
					}
				}
			})
		}
	}
}

// TestTimerSamplersCollapseDuplicates pins the duplicate-timestamp
// contract: a burst sharing one timestamp yields at most one selection
// per timer expiry (exactly one for SystematicTimer with offset 0, at
// most one for StratifiedTimer, whose next expiry is a bucket later).
func TestTimerSamplersCollapseDuplicates(t *testing.T) {
	const periodUS = int64(1_000)
	st, err := NewSystematicTimer(periodUS, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	for i := 0; i < 1000; i++ {
		if st.Offer(42) {
			got++
		}
	}
	if got != 1 {
		t.Errorf("systematic-timer selected %d duplicates of one instant, want 1", got)
	}

	for seed := uint64(0); seed < 20; seed++ {
		s, err := NewStratifiedTimer(periodUS, dist.NewRNG(seed))
		if err != nil {
			t.Fatal(err)
		}
		got := 0
		for i := 0; i < 1000; i++ {
			if s.Offer(42) {
				got++
			}
		}
		if got > 1 {
			t.Errorf("seed %d: stratified-timer selected %d duplicates of one instant", seed, got)
		}
	}
}

// TestTimerSamplersJumpInConstantTime: a clock that teleports 2^50
// periods forward costs an Offer a few operations and at most two draws
// — the expiries it passed collapse into one selection, and the burst
// at the landing timestamp is not selected again.
func TestTimerSamplersJumpInConstantTime(t *testing.T) {
	makers := samplerMakers(t, 1, 1)
	for _, name := range []string{"systematic-timer", "stratified-timer"} {
		s := makers[name]()
		if !s.Offer(0) {
			t.Errorf("%s: anchoring packet at period 1 not selected", name)
		}
		if !s.Offer(1 << 50) {
			t.Errorf("%s: first arrival after 2^50 expiries not selected", name)
		}
		if s.Offer(1 << 50) {
			t.Errorf("%s: duplicate of the landing timestamp selected again", name)
		}
		if !s.Offer(1<<50 + 1) {
			t.Errorf("%s: schedule did not resume after the jump", name)
		}
	}
}

// TestTimerSamplersIgnoreBackwardJumps pins the forward-only contract:
// after a selection, packets timestamped before the pending tick —
// including ones that jumped backwards — are not selected.
func TestTimerSamplersIgnoreBackwardJumps(t *testing.T) {
	const periodUS = int64(1_000)
	s, err := NewSystematicTimer(periodUS, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Offer(10_000) {
		t.Fatal("first packet should anchor and select")
	}
	for _, back := range []int64{9_999, 5_000, 0, -10_000} {
		if s.Offer(back) {
			t.Errorf("backward timestamp %d selected before the pending tick", back)
		}
	}
	// The schedule resumes where it would have been: the next tick after
	// the anchor selection is 11_000.
	if !s.Offer(11_000) {
		t.Error("schedule did not survive the backward excursion")
	}

	// Method 5's pending expiry is never before its anchor either.
	for seed := uint64(0); seed < 20; seed++ {
		rs, err := NewStratifiedTimer(periodUS, dist.NewRNG(seed))
		if err != nil {
			t.Fatal(err)
		}
		rs.Offer(10_000)
		for _, back := range []int64{9_999, 5_000, 0, -10_000} {
			if rs.Offer(back) {
				t.Errorf("seed %d: backward timestamp %d selected before the pending expiry", seed, back)
			}
		}
	}
}
