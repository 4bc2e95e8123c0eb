package pipeline

import (
	"fmt"

	"netsample/internal/collect"
	"netsample/internal/online"
)

// AdaptiveConfig enables closed-loop control of the systematic sampling
// granularity: a control step that steers k within [MinK, MaxK] against
// a drop-rate and φ-error budget at the pipeline's window cuts. It
// replaces Config.NewSampler: the reader's one sampler is a systematic
// one whose k the control step moves, so an adaptive run, like a fixed
// one, is bit-identical for any shard count at the same seed.
//
// Control rides the virtual clock: the reader decides at each window cut
// (cut positions are functions of packet timestamps alone), from the
// window it has just read — its offered count and both reports, scored
// from its own tallies — and the decision takes effect for the next
// window. Neither wall time nor the collector participates, so an
// adaptive run is exactly reproducible and the reader never waits on a
// decision.
type AdaptiveConfig struct {
	// MinK and MaxK bound the granularity, 1 <= MinK <= MaxK.
	MinK, MaxK int
	// StartK is the granularity of the first window, in [MinK, MaxK].
	StartK int
	// TargetPhi is the φ-error budget: a scored window whose worst
	// report φ exceeds it refines (halves k); one comfortably under it
	// (2φ <= TargetPhi) with no drops coarsens (doubles k), trading
	// fidelity headroom for less per-packet work.
	TargetPhi float64
	// DropBudget is the tolerated overload drop fraction per window;
	// a window exceeding it coarsens regardless of φ. Zero means any
	// drop triggers coarsening. A pipeline window never drops, so only
	// a caller that fills Dropped itself (the node model's statistics
	// processor, experiment.AdaptiveNode) reaches this branch.
	DropBudget float64
}

// validate reports configuration errors.
func (a *AdaptiveConfig) validate() error {
	if a.MinK < 1 || a.MaxK < a.MinK {
		return fmt.Errorf("%w: Adaptive needs 1 <= MinK <= MaxK", ErrConfig)
	}
	if a.StartK < a.MinK || a.StartK > a.MaxK {
		return fmt.Errorf("%w: Adaptive.StartK outside [MinK, MaxK]", ErrConfig)
	}
	// Negated so NaN, which every comparison fails, is refused too: a
	// NaN budget would leave the controller at StartK forever.
	if !(a.TargetPhi > 0) {
		return fmt.Errorf("%w: Adaptive.TargetPhi must be positive", ErrConfig)
	}
	if !(a.DropBudget >= 0 && a.DropBudget < 1) {
		return fmt.Errorf("%w: Adaptive.DropBudget must be in [0, 1)", ErrConfig)
	}
	return nil
}

// AdaptiveDecision records one window's control step.
type AdaptiveDecision struct {
	// Window is the snapshot sequence number the decision consumed.
	Window uint64
	// PrevK is the granularity in force during that window; K is the
	// granularity chosen for the next.
	PrevK, K int
	// DropRate is the window's overload loss fraction (Dropped/Offered).
	DropRate float64
	// Phi is the worst report φ of the window, or -1 when the window
	// was unscored (nothing selected, or a parent that hit fewer than
	// two bins).
	Phi float64
}

// Decide is the control law: a pure function of the previous k and the
// window's wire form, so the decision sequence is reproducible from the
// seed and trace alone. It reads only Seq, Offered, Dropped and the two
// reports, so any sample-and-export path that can fill those — the
// pipeline's reader at a window cut, or a node model's statistics
// processor over one epoch — is steered by the same law. Coarsening halves the
// selected load when the path drops beyond budget; refinement halves k
// when fidelity (φ against the window's parent population, every packet
// it offered) misses the target;
// comfortable windows — φ at most half the budget and zero drops —
// coarsen to shed work. All moves clamp to [MinK, MaxK].
func (a *AdaptiveConfig) Decide(prevK int, snap *collect.Snapshot) AdaptiveDecision {
	var dropRate float64
	if snap.Offered > 0 {
		dropRate = float64(snap.Dropped) / float64(snap.Offered)
	}
	phi := -1.0
	if snap.SizeReport != nil {
		phi = snap.SizeReport.Phi
	}
	if snap.IatReport != nil && snap.IatReport.Phi > phi {
		phi = snap.IatReport.Phi
	}
	// Doubling saturates at MaxK before multiplying: 2k wraps negative
	// past MaxInt/2, and the MinK clamp below would then turn "coarsen"
	// into "jump to the finest k".
	coarser := a.MaxK
	if prevK <= a.MaxK/2 {
		coarser = 2 * prevK
	}
	k := prevK
	switch {
	case snap.Offered > 0 && float64(snap.Dropped) > a.DropBudget*float64(snap.Offered):
		k = coarser
	case phi >= 0 && phi > a.TargetPhi:
		k /= 2
	case phi >= 0 && 2*phi <= a.TargetPhi && snap.Dropped == 0:
		k = coarser
	}
	if k < a.MinK {
		k = a.MinK
	}
	if k > a.MaxK {
		k = a.MaxK
	}
	return AdaptiveDecision{
		Window: snap.Seq, PrevK: prevK, K: k,
		DropRate: dropRate, Phi: phi,
	}
}

// steer is the reader's control step at a window cut: it applies the
// control law to the window just read and, when k moves, re-anchors the
// sampler, so the decision governs the next window from its first
// packet. It returns the k the window ran at. The final window closes
// the run; there is no next window for its decision to govern, so none
// is taken. Called from emitBarrier only; the hot-path closure audit
// (TestAdaptiveControlStaysOffHotPath) pins it to the cold side of the
// window cut.
func (p *Pipeline) steer(win *collect.Snapshot) int {
	sys := p.sampler.(*online.Systematic)
	k := sys.K()
	if win.Final {
		return k
	}
	d := p.cfg.Adaptive.Decide(k, win)
	p.mu.Lock()
	p.decisions = append(p.decisions, d)
	p.mu.Unlock()
	if d.K != k {
		// New granularity regime: the schedule restarts with the first
		// packet of the next window selected. SetGranularity alone
		// would anchor on the k-th; Reset moves the anchor back.
		//nslint:allow errdrop Decide clamps k to [MinK, MaxK] and validate pins MinK >= 1, so ErrBadGranularity is unreachable
		sys.SetGranularity(d.K)
		sys.Reset()
	}
	return k
}

// Decisions returns the control steps taken so far, in window order.
// Empty unless Config.Adaptive is set.
func (p *Pipeline) Decisions() []AdaptiveDecision {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]AdaptiveDecision(nil), p.decisions...)
}
