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

// MatrixCell is one (scenario, sampler) run of the windowed pipeline
// over the scenario trace: each window's φ scores its sample against
// that window's own packets, so it measures sampling error alone, not
// how far the scenario's mix drifts from its average.
type MatrixCell struct {
	Scenario string
	Sampler  string
	Windows  int
	Offered  uint64
	Selected uint64
	Dropped  uint64
	// MeanPhiSize and MeanPhiIat average the per-window φ over scored
	// windows; WorstPhi is the maximum φ either target reached in any
	// window. Unscored windows (no selection) are excluded.
	MeanPhiSize float64
	MeanPhiIat  float64
	WorstPhi    float64
	// MeanK is the granularity averaged over windows: the configured k
	// for fixed samplers, the controller's per-window k for adaptive.
	// KChanges counts adaptive decisions that moved k (0 for fixed).
	MeanK    float64
	KChanges int
}

// MatrixResult is the scenario × sampler characterization matrix.
type MatrixResult struct {
	table
	Seed     uint64
	Duration time.Duration
	K        int
	Cells    []MatrixCell
}

// Matrix runs every preset scenario against every sampler at base
// granularity k. Each cell is fully deterministic: its RNG seed is
// derived from (seed, scenario, sampler) alone and every run uses one
// shard, so repeated invocations are
// byte-identical in every export format.
func Matrix(seed uint64, dur time.Duration, k int) (*MatrixResult, error) {
	out := &MatrixResult{Seed: seed, Duration: dur, K: k, table: newTable("matrix",
		fmt.Sprintf("scenario × sampler matrix (seed %d, %s, k=%d)", seed, dur, k),
		column{"scenario", "scenario", "%-14s"}, column{"sampler", "sampler", "%-18s"},
		column{"windows", "win", "%4d"}, column{"offered", "offered", "%9d"},
		column{"selected", "selected", "%9d"}, column{"dropped", "dropped", "%8d"},
		column{"mean_phi_size", "phi[size]", "%9.4f"}, column{"mean_phi_iat", "phi[iat]", "%9.4f"},
		column{"worst_phi", "worstphi", "%9.4f"}, column{"mean_k", "mean_k", "%8.1f"},
		column{"k_changes", "moves", "%5d"})}
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
			c, err := matrixCell(tr, name, sampler, seed, dur, k)
			if err != nil {
				return nil, fmt.Errorf("matrix %s/%s: %w", name, sampler, err)
			}
			out.Cells = append(out.Cells, c)
			out.addRow(str(c.Scenario), str(c.Sampler), integer(c.Windows), integer(c.Offered),
				integer(c.Selected), integer(c.Dropped), float(c.MeanPhiSize), float(c.MeanPhiIat),
				float(c.WorstPhi), float(c.MeanK), integer(c.KChanges))
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

func matrixCell(tr *trace.Trace, scenario, sampler string, seed uint64, dur time.Duration, k int) (MatrixCell, error) {
	cell := MatrixCell{Scenario: scenario, Sampler: sampler}
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
	var sizeSum, iatSum float64
	var sizeN, iatN int
	var kSum float64
	cfg.OnSnapshot = func(snap *pipeline.Snapshot) {
		cell.Windows++
		cell.Offered += snap.Offered
		cell.Selected += snap.Selected
		cell.Dropped += snap.Dropped
		if snap.SizeReport != nil {
			sizeSum += snap.SizeReport.Phi
			sizeN++
			if snap.SizeReport.Phi > cell.WorstPhi {
				cell.WorstPhi = snap.SizeReport.Phi
			}
		}
		if snap.IatReport != nil {
			iatSum += snap.IatReport.Phi
			iatN++
			if snap.IatReport.Phi > cell.WorstPhi {
				cell.WorstPhi = snap.IatReport.Phi
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
		return cell, err
	}
	if err := p.Run(tr.Replay()); err != nil {
		return cell, err
	}
	if sizeN > 0 {
		cell.MeanPhiSize = sizeSum / float64(sizeN)
	}
	if iatN > 0 {
		cell.MeanPhiIat = iatSum / float64(iatN)
	}
	if cell.Windows > 0 {
		cell.MeanK = kSum / float64(cell.Windows)
	}
	for _, d := range p.Decisions() {
		if d.K != d.PrevK {
			cell.KChanges++
		}
	}
	return cell, nil
}
