package traffgen

import (
	"fmt"
	"strings"
	"time"

	"netsample/internal/dist"
	"netsample/internal/fanout"
	"netsample/internal/trace"
)

// Scenario composes a baseline application-mix hour with a schedule of
// overlay phases — the scenario zoo's answer to the paper's single
// benign 1993 trace. The baseline reproduces the calibrated aggregate
// of Generate for the embedded Config (identical RNG stream, identical
// packets); each phase then superimposes extra traffic over a fraction
// of the trace: an attack model (SYN flood, port scan), a shifted
// application mix (flash crowd), or a planted heavy hitter. All
// randomness still flows from the one seed in Base, so a Scenario
// generates an identical trace on every run.
type Scenario struct {
	Name string
	// Base is the background traffic configuration; its Seed drives
	// every phase overlay too.
	Base Config
	// Phases are applied in order, each consuming its own child RNGs,
	// so inserting or removing a phase does not disturb the baseline.
	Phases []Phase
}

// Phase is one overlay interval of a scenario.
type Phase struct {
	Name string
	// Start and End bound the phase as fractions of Base.Duration,
	// 0 <= Start < End <= 1.
	Start, End float64
	// TargetPPS is the overlay's offered rate while the phase is
	// active, on top of the baseline.
	TargetPPS float64
	// Envelope modulates the overlay rate within the phase (e.g. a
	// rising trend for a flash crowd's arrival wave).
	Envelope EnvelopeConfig
	// Mix, when non-nil, overlays ordinary application traffic with
	// the given mix — a load surge rather than an attack.
	Mix *Mix
	// model, when non-nil, builds the phase's traffic source from a
	// child RNG and the scenario's address pool — the attack and
	// heavy-hitter overlays. Exactly one of Mix and model is set.
	model func(r *dist.RNG, addrs *addressPool) sourceModel
}

// validate reports scenario construction errors.
func (s *Scenario) validate() error {
	if err := s.Base.Validate(); err != nil {
		return err
	}
	durUS := s.Base.Duration.Microseconds()
	expected := s.Base.TargetPPS * s.Base.Duration.Seconds()
	for i := range s.Phases {
		ph := &s.Phases[i]
		if (ph.Mix == nil) == (ph.model == nil) {
			return fmt.Errorf("traffgen: phase %q: exactly one of Mix and model must be set", ph.Name)
		}
		var mix Mix
		if ph.Mix != nil {
			mix = *ph.Mix
		}
		if !finiteParams(ph.TargetPPS, ph.Envelope, mix) {
			return fmt.Errorf("traffgen: phase %q: rate, envelope and mix weights must be finite", ph.Name)
		}
		// Written so that a NaN bound fails it.
		if !(0 <= ph.Start && ph.Start < ph.End && ph.End <= 1) {
			return fmt.Errorf("traffgen: phase %q: need 0 <= Start < End <= 1", ph.Name)
		}
		if ph.TargetPPS <= 0 {
			return fmt.Errorf("traffgen: phase %q: overlay rate must be positive", ph.Name)
		}
		if ph.Mix != nil && mix.total() <= 0 {
			return fmt.Errorf("traffgen: phase %q: mix weights must have positive sum", ph.Name)
		}
		_, _, packets := ph.window(durUS)
		expected += packets
	}
	return checkPacketCount(expected)
}

// window places the phase on a trace of durUS µs: its start, its
// length (at least 1 µs), and the packets it aims to add.
func (ph *Phase) window(durUS int64) (startUS, spanUS int64, packets float64) {
	startUS = int64(ph.Start * float64(durUS))
	spanUS = max(int64((ph.End-ph.Start)*float64(durUS)), 1)
	return startUS, spanUS, ph.TargetPPS * float64(spanUS) / 1e6
}

// GenerateScenario synthesizes the trace described by s: the baseline
// aggregate of s.Base with every phase overlay superimposed, one
// time-ordered packet stream on the base capture clock.
func GenerateScenario(s Scenario) (*trace.Trace, error) {
	pkts, workers, err := stageScenario(s)
	if err != nil {
		return nil, err
	}
	return finishTrace(pkts, s.Base, workers), nil
}

// capacity is the staging buffer's size in packets: the most the
// baseline and the phases can emit.
func (s *Scenario) capacity() int {
	durUS := s.Base.Duration.Microseconds()
	capacity := emissionBound(s.Base.TargetPPS * s.Base.Duration.Seconds())
	for i := range s.Phases {
		_, _, phasePackets := s.Phases[i].window(durUS)
		capacity += emissionBound(phasePackets)
	}
	return capacity
}

// stageScenario emits every packet of s — baseline models, then each
// phase — with Time the unquantized µs on the trace clock: the input
// finishTrace sorts on the worker count it also returns. From
// fanout.MinPackets of capacity, both stage and sort on GOMAXPROCS
// workers; below it one worker does both, with no goroutine and no
// allocation for the plan.
func stageScenario(s Scenario) ([]trace.Packet, int, error) {
	if err := s.validate(); err != nil {
		return nil, 0, err
	}
	mix := s.Base.Mix
	if mix == (Mix{}) {
		mix = DefaultMix()
	}

	durUS := s.Base.Duration.Microseconds()
	capacity := s.capacity()
	st := &stager{pkts: make([]trace.Packet, 0, capacity)}
	root := &st.root
	root.Reseed(s.Base.Seed)
	var child dist.RNG
	root.SplitInto(&child)
	env, err := newEnvelope(s.Base.Envelope, &child, durUS)
	if err != nil {
		return nil, 0, fmt.Errorf("traffgen: base envelope: %w", err)
	}
	root.SplitInto(&child)
	addrs := newAddressPool(s.Base.Profile, &child)
	st.addrs = addrs

	total := s.Base.TargetPPS * s.Base.Duration.Seconds()
	workers := fanout.Workers(capacity)
	if workers > 1 {
		st.plan = make([]run, 0, mixModels*(1+len(s.Phases)))
	}

	// Baseline: planned before any phase touches root, so the background
	// traffic is packet-identical to the phase-free trace.
	st.addMix(mix, total, durUS, 0, env)

	// Overlays: each phase generates into phase-local time [0, span)
	// with its own envelope, then shifts onto the trace clock. Phase
	// order is part of the seed contract: each overlay consumes child
	// RNGs in declaration order.
	for _, ph := range s.Phases {
		startUS, spanUS, phasePackets := ph.window(durUS)
		root.SplitInto(&child)
		phaseEnv, err := newEnvelope(ph.Envelope, &child, spanUS)
		if err != nil {
			return nil, 0, fmt.Errorf("traffgen: phase %q envelope: %w", ph.Name, err)
		}
		if ph.Mix != nil {
			st.addMix(*ph.Mix, phasePackets, spanUS, startUS, phaseEnv)
		} else {
			st.add(ph.model(root.Split(), addrs), phasePackets, spanUS, startUS, phaseEnv)
		}
	}

	if st.plan != nil {
		return stageParallel(st.pkts, st.plan, workers), workers, nil
	}
	return st.pkts, workers, nil
}

// ScenarioNames lists the preset scenarios in their canonical order.
func ScenarioNames() []string {
	return []string{"ddos", "flashcrowd", "hhchurn", "portscan", "elephantmice"}
}

// PresetScenario builds a calibrated preset scenario over a baseline of
// the NSFNETHour character scaled to dur. The presets model the
// workload classes a 2026 deployment must survive that the 1993 hour
// never exercises — each stresses a different part of the sampling
// pipeline.
func PresetScenario(name string, seed uint64, dur time.Duration) (Scenario, error) {
	base := NSFNETHour()
	base.Seed = seed
	base.Duration = dur
	s := Scenario{Name: name, Base: base}
	switch name {
	case "ddos":
		// SYN-flood burst: 10x the baseline rate of 40 B TCP SYNs from
		// spoofed sources onto one victim during the middle third. The
		// flood's per-packet flow churn stresses the flow table and the
		// burst stresses the adaptive controller's drop budget.
		s.Phases = []Phase{{
			Name: "syn-flood", Start: 0.3, End: 0.6,
			TargetPPS: 10 * base.TargetPPS,
			model:     newSYNFloodModel,
		}}
	case "flashcrowd":
		// Flash crowd: legitimate request/response traffic converging
		// on one hot server, ramping in and decaying — a load surge
		// with realistic packet sizes, unlike the flood.
		s.Phases = []Phase{{
			Name: "crowd", Start: 0.4, End: 0.85,
			TargetPPS: 3 * base.TargetPPS,
			Envelope:  EnvelopeConfig{Sigma: 0.1, Rho: 0.9, EpochSeconds: 5, TrendPerHour: -0.8},
			model:     newFlashCrowdModel,
		}}
	case "hhchurn":
		// Heavy-hitter churn: four consecutive quarters, each dominated
		// by a different planted elephant 5-tuple, so the top-k flow
		// ranking turns over completely four times.
		for q := 0; q < 4; q++ {
			s.Phases = append(s.Phases, Phase{
				Name:  fmt.Sprintf("elephant-%d", q),
				Start: float64(q) * 0.25, End: float64(q+1) * 0.25,
				TargetPPS: 1.5 * base.TargetPPS,
				model:     newElephantModel,
			})
		}
	case "portscan":
		// Port scan: one scanner sweeping a victim's ports with 1-2
		// packet flows — maximal distinct-flow pressure per packet.
		s.Phases = []Phase{{
			Name: "scan", Start: 0.2, End: 0.8,
			TargetPPS: 0.5 * base.TargetPPS,
			model:     newPortScanModel,
		}}
	case "elephantmice":
		// Elephants vs mice: a few long 1500 B trains carrying most of
		// the bytes over a sea of short flows — the flow-size skew
		// behind the heavy-hitter sampling literature.
		s.Phases = []Phase{{
			Name: "skew", Start: 0, End: 1,
			TargetPPS: base.TargetPPS,
			model:     newElephantMiceModel,
		}}
	default:
		return Scenario{}, fmt.Errorf("traffgen: unknown scenario %q (have %s)", name, strings.Join(ScenarioNames(), ", "))
	}
	return s, nil
}
