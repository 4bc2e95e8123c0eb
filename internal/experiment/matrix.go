package experiment

import (
	"fmt"
	"hash/fnv"
	"time"

	"netsample/internal/core"
	"netsample/internal/dist"
	"netsample/internal/online"
	"netsample/internal/pipeline"
	"netsample/internal/trace"
	"netsample/internal/traffgen"
)

// MatrixSamplers lists the matrix's sampler axis in render order. The
// first four are the paper's fixed methods; "adaptive" is the
// closed-loop systematic controller (DESIGN.md §5) steering k per
// window.
var MatrixSamplers = []string{
	"systematic", "stratified", "systematic-timer", "stratified-timer", "adaptive",
}

// Matrix is the scenario × sampler characterization matrix: it runs
// every preset scenario against every sampler at base granularity k.
// Each cell is fully deterministic: its RNG seed is derived from (seed,
// scenario, sampler) alone and every run uses one shard, so repeated
// invocations are byte-identical in every export format.
func Matrix(seed uint64, dur time.Duration, k int) (Result, error) {
	out := newTable("matrix", fmt.Sprintf("scenario × sampler matrix (seed %d, %s, k=%d)", seed, dur, k),
		column{"scenario", "scenario", "%-14s"}, column{"sampler", "sampler", "%-18s"},
		column{"windows", "win", "%4d"}, column{"offered", "offered", "%9d"},
		column{"selected", "selected", "%9d"}, column{"dropped", "dropped", "%8d"},
		column{"mean_phi_size", "phi[size]", "%9.4f"}, column{"mean_phi_iat", "phi[iat]", "%9.4f"},
		column{"worst_phi", "worstphi", "%9.4f"}, column{"mean_k", "mean_k", "%8.1f"},
		column{"k_changes", "moves", "%5d"})
	for _, name := range traffgen.ScenarioNames() {
		s, err := traffgen.PresetScenario(name, seed, dur)
		if err != nil {
			return nil, err
		}
		tr, err := traffgen.GenerateScenario(s)
		if err != nil {
			return nil, err
		}
		for _, sampler := range MatrixSamplers {
			if err := addMatrixCell(out, tr, name, sampler, seed, dur, k); err != nil {
				return nil, fmt.Errorf("matrix %s/%s: %w", name, sampler, err)
			}
		}
	}
	return out, nil
}

// cellSeed derives a cell's RNG seed from the matrix seed and the cell
// coordinates, so cells are independent of the order they run in.
func cellSeed(seed uint64, scenario, sampler string) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%s", seed, scenario, sampler)
	return h.Sum64()
}

// addMatrixCell appends one (scenario, sampler) run of the windowed
// pipeline over the scenario trace. Each window's φ scores its sample
// against that window's own packets, so it measures sampling error
// alone, not how far the scenario's mix drifts from its average. The
// row's mean φ per target averages the scored windows' φ (a window
// that selected nothing is unscored); its worst φ is the maximum either
// target reached in any window; its mean k averages the granularity over
// windows — the configured k for fixed samplers, the controller's
// per-window k for adaptive — and its moves count the adaptive
// decisions that changed k (0 for fixed).
func addMatrixCell(out *table, tr *trace.Trace, scenario, sampler string, seed uint64, dur time.Duration, k int) error {
	cfg := pipeline.Config{
		Shards:   1,
		WindowUS: dur.Microseconds() / 6,
	}
	if sampler == "adaptive" {
		minK := k / 8
		if minK < 1 {
			minK = 1
		}
		cfg.Adaptive = &pipeline.AdaptiveConfig{
			MinK: minK, MaxK: 8 * k, StartK: k, TargetPhi: 0.25,
		}
	} else {
		rng := dist.NewRNG(cellSeed(seed, scenario, sampler))
		// Only the timer methods read the period; a trace too short to
		// have one leaves it 0, which their constructors reject.
		period, _ := core.PeriodForGranularity(tr, float64(k))
		cfg.NewSampler = func(int) (online.Sampler, error) {
			return online.New(sampler, k, period, rng)
		}
	}
	var windows, moves int
	var offered, selected, dropped uint64
	var sizeSum, iatSum, worst, kSum float64
	var sizeN, iatN int
	cfg.OnSnapshot = func(snap *pipeline.Snapshot) {
		windows++
		offered += snap.Offered
		selected += snap.Selected
		dropped += snap.Dropped
		if snap.SizeReport != nil {
			sizeSum += snap.SizeReport.Phi
			sizeN++
			if snap.SizeReport.Phi > worst {
				worst = snap.SizeReport.Phi
			}
		}
		if snap.IatReport != nil {
			iatSum += snap.IatReport.Phi
			iatN++
			if snap.IatReport.Phi > worst {
				worst = snap.IatReport.Phi
			}
		}
		if snap.K > 0 {
			kSum += float64(snap.K)
		} else {
			kSum += float64(k)
		}
	}
	p, err := pipeline.New(cfg)
	if err != nil {
		return err
	}
	if err := p.Run(tr.Replay()); err != nil {
		return err
	}
	var meanSize, meanIat, meanK float64
	if sizeN > 0 {
		meanSize = sizeSum / float64(sizeN)
	}
	if iatN > 0 {
		meanIat = iatSum / float64(iatN)
	}
	if windows > 0 {
		meanK = kSum / float64(windows)
	}
	for _, d := range p.Decisions() {
		if d.K != d.PrevK {
			moves++
		}
	}
	out.addRow(str(scenario), str(sampler), integer(windows), integer(offered), integer(selected), integer(dropped),
		float(meanSize), float(meanIat), float(worst), float(meanK), integer(moves))
	return nil
}
