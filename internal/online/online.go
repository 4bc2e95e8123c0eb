// Package online provides streaming (one-packet-at-a-time) forms of the
// paper's sampling methods — the shape they take in forwarding-path
// firmware, where the T3 subsystems decided per packet whether to pass
// the header to the main CPU. The batch samplers in internal/core
// operate on a complete trace; these operate on a live packet stream
// with O(1) state and no knowledge of the stream's length.
//
// Equivalence with the batch methods: streaming systematic selects
// exactly the packets core.SystematicCount does (pinned in the tests),
// and the two timer methods have no batch twin to drift from —
// core.SystematicTimer and core.StratifiedTimer are these samplers
// offered the trace.
//
// # Timestamp tolerance
//
// Real capture clocks step backwards (NTP adjustments) and repeat
// (coarse granularity: the study's own hardware ticked at 400 µs, so
// back-to-back packets share timestamps). Offer therefore accepts any
// int64 timestamp sequence — non-monotonic, duplicated, negative —
// without panicking, and each Offer decides exactly one packet, so no
// packet is ever selected twice. The defined behavior per method:
//
//   - Systematic and Stratified are count-driven and ignore timestamps
//     entirely; their selection pattern is unaffected.
//   - SystematicTimer's schedule only moves forward: its first packet
//     anchors the tick, a selection advances the next tick strictly past
//     the selected timestamp, and a packet timestamped before the
//     pending tick is simply not selected. Duplicate timestamps collapse
//     onto at most one selection per tick.
//   - StratifiedTimer is SystematicTimer with jittered ticks: buckets
//     are period-long from the first packet, each expires at one random
//     instant inside it, and an expiry arms selection of the next
//     arrival, whichever bucket that lands in. Expiries that pass before
//     that arrival collapse into it, and buckets it skipped are stepped
//     over without a draw — at most two draws an Offer, whatever the
//     gap. A timestamp before the pending expiry — including one that
//     jumped backwards — is not selected.
//
// These guarantees are pinned by the property tests in
// property_test.go.
package online

import (
	"errors"
	"fmt"

	"netsample/internal/dist"
)

// Sampler is a streaming per-packet selector. Offer is called once per
// packet in arrival order and reports whether that packet is selected.
type Sampler interface {
	// Name identifies the method.
	Name() string
	// Offer processes one packet arrival and reports selection.
	Offer(tUS int64) bool
	// Reset prepares the sampler for a new collection interval.
	Reset()
}

// Errors returned by constructors.
var (
	ErrBadGranularity = errors.New("online: granularity must be >= 1")
	ErrBadPeriod      = errors.New("online: timer period must be positive")
)

// New builds the streaming sampler a method name stands for, the one
// table behind nsd's -method flag and the experiment matrix:
//
//	systematic        every k-th packet, offset 0
//	stratified        one random packet per k-packet bucket
//	systematic-timer  first packet at or after each periodUS tick
//	stratified-timer  first packet after a random instant per bucket
//
// The count-driven methods ignore periodUS, the timer-driven ones k,
// and the systematic ones rng.
func New(method string, k int, periodUS int64, rng *dist.RNG) (Sampler, error) {
	switch method {
	case "systematic":
		return NewSystematic(k, 0)
	case "stratified":
		return NewStratified(k, rng)
	case "systematic-timer":
		return NewSystematicTimer(periodUS, 0)
	case "stratified-timer":
		return NewStratifiedTimer(periodUS, rng)
	}
	return nil, fmt.Errorf("online: unknown method %q", method)
}

// Systematic selects every k-th packet: the T3 firmware rule. With
// offset o, the first selected packet is the (o+1)-th to arrive, then
// every k-th after it — index-for-index identical to the batch
// core.SystematicCount{K: k, Offset: o}.
type Systematic struct {
	k       int
	offset  int
	counter int
}

// NewSystematic builds a streaming systematic sampler. offset in [0, k)
// shifts the phase: with offset o, the (o+1)-th packet is the first
// selected.
func NewSystematic(k, offset int) (*Systematic, error) {
	if k < 1 {
		return nil, ErrBadGranularity
	}
	if offset < 0 || offset >= k {
		return nil, fmt.Errorf("%w: offset %d outside [0, %d)", ErrBadGranularity, offset, k)
	}
	s := &Systematic{k: k, offset: offset}
	s.Reset()
	return s, nil
}

// Name implements Sampler.
func (s *Systematic) Name() string { return "online-systematic" }

// K returns the granularity currently in force.
func (s *Systematic) K() int { return s.k }

// SetGranularity switches the sampler to a new granularity mid-stream.
//
// Selection contract across a change: the schedule re-anchors at the
// change point — the k-th packet offered after the call is the next
// selected, then every k-th after it, exactly as if a selection had
// just occurred when the granularity changed. This pins the
// inter-selection gap immediately after a switch to exactly k; without
// the re-anchor a free-running counter tested mod k would land the
// first post-switch selection at an arbitrary phase of the new modulus
// (any gap in [1, k)), biasing the first sampled interval after every
// control decision. A call with the current granularity is a no-op:
// the running schedule continues uninterrupted, so a controller may
// invoke it unconditionally once per window.
func (s *Systematic) SetGranularity(k int) error {
	if k < 1 {
		return ErrBadGranularity
	}
	if k == s.k {
		return nil
	}
	s.k = k
	// Re-anchor: k-1 packets pass, the k-th is selected (counter == 0
	// selects, so start one past it, wrapping for k == 1).
	s.counter = 1 % k
	return nil
}

// Offer implements Sampler.
func (s *Systematic) Offer(int64) bool {
	sel := s.counter == 0
	s.counter++
	if s.counter == s.k {
		s.counter = 0
	}
	return sel
}

// Reset implements Sampler.
func (s *Systematic) Reset() {
	// First selection after offset packets have passed. The offset is
	// reduced mod k so Reset stays well-defined after SetGranularity
	// shrank k below the construction-time offset.
	s.counter = -(s.offset % s.k)
	if s.counter < 0 {
		s.counter += s.k
	}
	if s.k == 1 {
		s.counter = 0
	}
}

// Stratified selects one uniformly random packet per bucket of k
// consecutive packets, drawing the in-bucket position when each bucket
// opens — O(1) state, no buffering.
type Stratified struct {
	k      int
	rng    *dist.RNG
	pos    int // position within the current bucket
	target int // selected position within the current bucket
}

// NewStratified builds a streaming stratified sampler.
func NewStratified(k int, rng *dist.RNG) (*Stratified, error) {
	if k < 1 {
		return nil, ErrBadGranularity
	}
	s := &Stratified{k: k, rng: rng}
	s.Reset()
	return s, nil
}

// Name implements Sampler.
func (s *Stratified) Name() string { return "online-stratified" }

// Offer implements Sampler.
func (s *Stratified) Offer(int64) bool {
	sel := s.pos == s.target
	s.pos++
	if s.pos == s.k {
		s.pos = 0
		s.target = s.rng.IntN(s.k)
	}
	return sel
}

// Reset implements Sampler.
func (s *Stratified) Reset() {
	s.pos = 0
	s.target = s.rng.IntN(s.k)
}

// SystematicTimer selects the first packet to arrive at or after each
// expiry of a periodic timer.
type SystematicTimer struct {
	period int64
	offset int64
	next   int64
	armed  bool
}

// NewSystematicTimer builds a streaming timer sampler whose first tick
// fires offset µs after the first packet.
func NewSystematicTimer(periodUS, offsetUS int64) (*SystematicTimer, error) {
	if periodUS < 1 {
		return nil, ErrBadPeriod
	}
	s := &SystematicTimer{period: periodUS, offset: offsetUS}
	s.Reset()
	return s, nil
}

// Name implements Sampler.
func (s *SystematicTimer) Name() string { return "online-systematic-timer" }

// Offer implements Sampler.
func (s *SystematicTimer) Offer(tUS int64) bool {
	if !s.armed {
		// The first packet anchors the tick schedule.
		s.next = tUS + s.offset
		s.armed = true
	}
	if tUS >= s.next {
		// Selection was armed by a tick at or before this arrival; any
		// further ticks that passed collapse into this one selection.
		// The next expiry is the first tick strictly after tUS.
		s.next += ((tUS-s.next)/s.period + 1) * s.period
		return true
	}
	return false
}

// Reset implements Sampler.
func (s *SystematicTimer) Reset() {
	s.armed = false
	s.next = 0
}

// StratifiedTimer draws one uniformly random expiry per period-long
// time bucket and selects the first packet to arrive at or after each;
// expiries no packet separates collapse into one selection.
type StratifiedTimer struct {
	period  int64
	rng     *dist.RNG
	bucket  int64 // start of the bucket the pending expiry was drawn in
	instant int64 // the pending expiry
	armed   bool
}

// NewStratifiedTimer builds a streaming stratified timer sampler.
func NewStratifiedTimer(periodUS int64, rng *dist.RNG) (*StratifiedTimer, error) {
	if periodUS < 1 {
		return nil, ErrBadPeriod
	}
	s := &StratifiedTimer{period: periodUS, rng: rng}
	s.Reset()
	return s, nil
}

// Name implements Sampler.
func (s *StratifiedTimer) Name() string { return "online-stratified-timer" }

// Offer implements Sampler.
func (s *StratifiedTimer) Offer(tUS int64) bool {
	if !s.armed {
		s.armed = true
		s.openBucket(tUS)
	}
	if tUS < s.instant {
		return false
	}
	// The pending expiry armed this arrival, and every expiry up to it
	// collapses into this selection: buckets that ended before it are
	// stepped over without a draw, and of its own bucket's expiry only
	// one still ahead of it stays pending.
	if skipped := (tUS - s.bucket) / s.period; skipped > 0 {
		s.openBucket(s.bucket + skipped*s.period)
		if tUS < s.instant {
			return true
		}
	}
	s.openBucket(s.bucket + s.period)
	return true
}

// openBucket draws the expiry of the bucket beginning at startUS.
func (s *StratifiedTimer) openBucket(startUS int64) {
	s.bucket = startUS
	s.instant = startUS + s.rng.Int64N(s.period)
}

// Reset implements Sampler.
func (s *StratifiedTimer) Reset() { s.armed = false }
