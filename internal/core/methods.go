package core

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"

	"netsample/internal/dist"
	"netsample/internal/online"
	"netsample/internal/trace"
)

// collect is Select for the methods whose selection is not a bare
// stride: SelectEach gathered into a slice sized for the expected
// number of selections.
func collect(s Sampler, tr *trace.Trace, r *dist.RNG, sizeHint int) ([]int, error) {
	out := make([]int, 0, sizeHint)
	if err := s.SelectEach(tr, r, func(i int) { out = append(out, i) }); err != nil {
		return nil, err
	}
	return out, nil
}

// New builds the batch sampler a method name stands for — the names
// online.New takes, plus "random", which no stream can run — the one
// table behind the -method flag of nstrace sample and nstrace phi:
//
//	systematic        every k-th packet from offset
//	stratified        one random packet per k-packet bucket
//	random            ⌈N/k⌉ packets drawn from the whole trace
//	systematic-timer  period k × tr's mean gap, first expiry at its start
//	stratified-timer  the same period, one random expiry per bucket
//
// Only systematic starts at an offset; a non-zero one for any other
// method is an error, not silently dropped.
func New(method string, tr *trace.Trace, k, offset int) (Sampler, error) {
	if offset != 0 && method != "systematic" {
		if _, err := New(method, tr, k, 0); err != nil {
			return nil, err // an unknown method is named as one
		}
		return nil, fmt.Errorf("core: method %q takes no offset (got %d); only systematic starts at one", method, offset)
	}
	switch method {
	case "systematic":
		return SystematicCount{K: k, Offset: offset}, nil
	case "stratified":
		return StratifiedCount{K: k}, nil
	case "random":
		return SimpleRandom{K: k}, nil
	case "systematic-timer":
		return NewSystematicTimer(tr, float64(k), 0)
	case "stratified-timer":
		return NewStratifiedTimer(tr, float64(k))
	}
	return nil, fmt.Errorf("core: unknown method %q (have systematic, stratified, random, systematic-timer, stratified-timer)", method)
}

// SystematicCount samples every K-th packet deterministically, starting
// at index Offset (0 <= Offset < K). This is the method deployed on the
// NSFNET T3 backbone with K = 50; varying Offset produces the paper's
// replications.
type SystematicCount struct {
	K      int
	Offset int
}

// Name implements Sampler.
func (s SystematicCount) Name() string { return "systematic/packet" }

// validate checks the parameters against the trace, returning its length.
func (s SystematicCount) validate(tr *trace.Trace) (int, error) {
	if s.K < 1 {
		return 0, ErrBadGranularity
	}
	if s.Offset < 0 || s.Offset >= s.K {
		return 0, fmt.Errorf("%w: offset %d outside [0, %d)", ErrBadGranularity, s.Offset, s.K)
	}
	n := tr.Len()
	if n == 0 {
		return 0, ErrEmptyPopulation
	}
	return n, nil
}

// SelectEach implements Sampler.
func (s SystematicCount) SelectEach(tr *trace.Trace, _ *dist.RNG, yield func(int)) error {
	n, err := s.validate(tr)
	if err != nil {
		return err
	}
	for i := s.Offset; i < n; i += s.K {
		yield(i)
	}
	return nil
}

// Select implements Sampler. It keeps its own arithmetic loop rather
// than going through collect: an indirect yield per index doubles it
// (3.0 → 6.2 µs per 1024 indices), and BenchmarkSystematicSelect is a
// hard-gated row.
func (s SystematicCount) Select(tr *trace.Trace, _ *dist.RNG) ([]int, error) {
	n, err := s.validate(tr)
	if err != nil {
		return nil, err
	}
	out := make([]int, 0, n/s.K+1)
	for i := s.Offset; i < n; i += s.K {
		out = append(out, i)
	}
	return out, nil
}

// StratifiedCount samples one uniformly random packet from each
// consecutive bucket of K packets. The final partial bucket, if any,
// contributes one packet chosen uniformly from its members, so every
// packet has selection probability 1/K (or 1/len for the tail bucket).
type StratifiedCount struct {
	K int
}

// Name implements Sampler.
func (s StratifiedCount) Name() string { return "stratified/packet" }

// validate checks the parameters against the trace, returning its length.
func (s StratifiedCount) validate(tr *trace.Trace) (int, error) {
	if s.K < 1 {
		return 0, ErrBadGranularity
	}
	n := tr.Len()
	if n == 0 {
		return 0, ErrEmptyPopulation
	}
	return n, nil
}

// SelectEach implements Sampler.
func (s StratifiedCount) SelectEach(tr *trace.Trace, r *dist.RNG, yield func(int)) error {
	n, err := s.validate(tr)
	if err != nil {
		return err
	}
	for start := 0; start < n; start += s.K {
		size := s.K
		if start+size > n {
			size = n - start
		}
		yield(start + r.IntN(size))
	}
	return nil
}

// Select implements Sampler.
func (s StratifiedCount) Select(tr *trace.Trace, r *dist.RNG) ([]int, error) {
	n, err := s.validate(tr)
	if err != nil {
		return nil, err
	}
	return collect(s, tr, r, n/s.K+1)
}

// SimpleRandom samples n = ⌈N/K⌉ packets uniformly at random without
// replacement from the whole population.
type SimpleRandom struct {
	K int
}

// Name implements Sampler.
func (s SimpleRandom) Name() string { return "random/packet" }

// validate checks the parameters against the trace, returning its length
// and the sample size.
func (s SimpleRandom) validate(tr *trace.Trace) (n, want int, err error) {
	if s.K < 1 {
		return 0, 0, ErrBadGranularity
	}
	n = tr.Len()
	if n == 0 {
		return 0, 0, ErrEmptyPopulation
	}
	return n, (n + s.K - 1) / s.K, nil
}

// srBitsets pools the membership bitsets Floyd's algorithm needs, so
// steady-state replication makes no per-sample allocation. A pooled
// bitset is always all-zero: SelectEach clears each word as it drains it.
var srBitsets = sync.Pool{New: func() any { return new(srBitset) }}

// srBitset is a chosen-set over packet indices.
type srBitset struct{ words []uint64 }

// grow ensures capacity for n bits; fresh words come zeroed from make.
func (b *srBitset) grow(n int) {
	need := (n + 63) / 64
	if cap(b.words) < need {
		b.words = make([]uint64, need)
	}
	b.words = b.words[:need]
}

// SelectEach implements Sampler. Floyd's algorithm draws the
// same uniform sample of `want` distinct indices as the classic
// map-based variant draw-for-draw, but tracks membership in a pooled
// bitset — no map allocation or hashing on the hot path — and yields the
// chosen indices in increasing order by draining the bitset.
func (s SimpleRandom) SelectEach(tr *trace.Trace, r *dist.RNG, yield func(int)) error {
	n, want, err := s.validate(tr)
	if err != nil {
		return err
	}
	b := srBitsets.Get().(*srBitset)
	b.grow(n)
	for j := n - want; j < n; j++ {
		t := r.IntN(j + 1)
		if b.words[t>>6]&(1<<(uint(t)&63)) != 0 {
			t = j
		}
		b.words[t>>6] |= 1 << (uint(t) & 63)
	}
	for w, word := range b.words {
		base := w << 6
		for word != 0 {
			yield(base + bits.TrailingZeros64(word))
			word &= word - 1
		}
		b.words[w] = 0
	}
	srBitsets.Put(b)
	return nil
}

// Select implements Sampler.
func (s SimpleRandom) Select(tr *trace.Trace, r *dist.RNG) ([]int, error) {
	_, want, err := s.validate(tr)
	if err != nil {
		return nil, err
	}
	return collect(s, tr, r, want)
}

// SystematicTimer selects, at every expiry of a periodic timer, the next
// packet to arrive. PeriodUS is the timer period in microseconds and
// OffsetUS the first expiry; the paper notes the "next packet to arrive"
// rule is a necessary approximation of time-driven selection. A packet
// already selected is not selected again; if no packet arrives between
// two expiries, the pending expiries collapse onto the next arrival (at
// most one selection per packet).
type SystematicTimer struct {
	PeriodUS int64
	OffsetUS int64
	// SelectPrevious flips the timer-edge rule for the ablation study:
	// instead of the paper's "next packet to arrive" approximation, each
	// expiry selects the most recent packet that already arrived (if not
	// yet selected). The paper calls the next-arrival rule "a necessary
	// approximation but seemingly inconsequential"; the ablations
	// artifact (experiment.Ablations) quantifies that claim.
	SelectPrevious bool
}

// NewSystematicTimer builds a SystematicTimer whose period approximates
// sampling granularity k on the given trace.
func NewSystematicTimer(tr *trace.Trace, k float64, offsetUS int64) (SystematicTimer, error) {
	period, err := PeriodForGranularity(tr, k)
	if err != nil {
		return SystematicTimer{}, err
	}
	return SystematicTimer{PeriodUS: period, OffsetUS: offsetUS}, nil
}

// Name implements Sampler.
func (s SystematicTimer) Name() string { return "systematic/timer" }

// validateTimer checks a timer method's period against the trace,
// returning the trace's length.
func validateTimer(periodUS int64, tr *trace.Trace) (int, error) {
	if periodUS < 1 {
		return 0, ErrBadPeriod
	}
	n := tr.Len()
	if n == 0 {
		return 0, ErrEmptyPopulation
	}
	return n, nil
}

// timerCap estimates the number of timer selections: one per period over
// the trace span, plus slack for the edge ticks.
func timerCap(tr *trace.Trace, n int, periodUS int64) int {
	span := tr.Packets[n-1].Time - tr.Packets[0].Time
	c := int(span/periodUS) + 2
	if c > n {
		c = n
	}
	return c
}

// SelectEach implements Sampler. The paper's rule has one definition,
// online.SystematicTimer; the batch form offers it the trace.
func (s SystematicTimer) SelectEach(tr *trace.Trace, _ *dist.RNG, yield func(int)) error {
	n, err := validateTimer(s.PeriodUS, tr)
	if err != nil {
		return err
	}
	if s.SelectPrevious {
		// Ablation rule: each expiry selects the newest already-arrived
		// packet not yet selected.
		start := tr.Packets[0].Time
		end := tr.Packets[n-1].Time
		last := -1
		for tick := start + s.OffsetUS; tick <= end+s.PeriodUS; tick += s.PeriodUS {
			i := sort.Search(n, func(j int) bool { return tr.Packets[j].Time >= tick }) - 1
			if i > last {
				yield(i)
				last = i
			}
		}
		return nil
	}
	st, err := online.NewSystematicTimer(s.PeriodUS, s.OffsetUS)
	if err != nil {
		return err
	}
	for i := range tr.Packets {
		if st.Offer(tr.Packets[i].Time) {
			yield(i)
		}
	}
	return nil
}

// Select implements Sampler.
func (s SystematicTimer) Select(tr *trace.Trace, r *dist.RNG) ([]int, error) {
	n, err := validateTimer(s.PeriodUS, tr)
	if err != nil {
		return nil, err
	}
	return collect(s, tr, r, timerCap(tr, n, s.PeriodUS))
}

// StratifiedTimer divides time into consecutive buckets of PeriodUS
// microseconds, draws one uniformly random instant in each bucket, and
// selects the next packet to arrive at or after that instant; as in
// SystematicTimer, instants no packet separates collapse onto the next
// arrival.
type StratifiedTimer struct {
	PeriodUS int64
}

// NewStratifiedTimer builds a StratifiedTimer whose period approximates
// sampling granularity k on the given trace.
func NewStratifiedTimer(tr *trace.Trace, k float64) (StratifiedTimer, error) {
	period, err := PeriodForGranularity(tr, k)
	if err != nil {
		return StratifiedTimer{}, err
	}
	return StratifiedTimer{PeriodUS: period}, nil
}

// Name implements Sampler.
func (s StratifiedTimer) Name() string { return "stratified/timer" }

// SelectEach implements Sampler: online.StratifiedTimer, drawing from r,
// offered the trace.
func (s StratifiedTimer) SelectEach(tr *trace.Trace, r *dist.RNG, yield func(int)) error {
	if _, err := validateTimer(s.PeriodUS, tr); err != nil {
		return err
	}
	st, err := online.NewStratifiedTimer(s.PeriodUS, r)
	if err != nil {
		return err
	}
	for i := range tr.Packets {
		if st.Offer(tr.Packets[i].Time) {
			yield(i)
		}
	}
	return nil
}

// Select implements Sampler.
func (s StratifiedTimer) Select(tr *trace.Trace, r *dist.RNG) ([]int, error) {
	n, err := validateTimer(s.PeriodUS, tr)
	if err != nil {
		return nil, err
	}
	return collect(s, tr, r, timerCap(tr, n, s.PeriodUS))
}
