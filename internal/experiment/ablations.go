package experiment

import (
	"fmt"

	"netsample/internal/bins"
	"netsample/internal/core"
	"netsample/internal/dist"
	"netsample/internal/stats"
	"netsample/internal/trace"
	"netsample/internal/traffgen"
)

// ablationReps is every ablation cell's replication count: the paper's
// five, over start phases for the systematic methods and over draws of
// a per-cell seed for the random ones.
const ablationReps = 5

// Ablations runs the six DESIGN.md §4 design-choice ablations serially
// in a fixed order: bins, timer edge, replication count and stratified
// jitter on tr; trend and capture clock on their own generated
// populations. Each row is one cell: φ over the replications of one
// setting, summarized as its median and IQR. The output is a function
// of tr alone. All leaves it out; Only runs it.
func Ablations(tr *trace.Trace) (Result, error) {
	out := newTable("ablations", "design-choice ablations: median phi and IQR over replications",
		column{"ablation", "ablation", "%-13s"}, column{"cell", "cell", "%-36s"}, column{"n", "n", "%3d"},
		column{"median_phi", "median", "%10.5f"}, column{"iqr", "iqr", "%10.5f"})
	size, err := newEvaluator(tr, core.TargetSize)
	if err != nil {
		return nil, err
	}
	if err := binSchemes(out, tr); err != nil {
		return nil, err
	}
	if err := timerEdge(out, tr, size); err != nil {
		return nil, err
	}
	for _, r := range []int{2, 5, 20} {
		// The spread over ablationReps independent sets of the mean φ
		// of r stratified samples: what a larger r buys.
		rng := dist.NewRNG(uint64(r))
		means := make([]float64, ablationReps)
		for i := range means {
			reps, err := core.Replicate(size, core.StratifiedCount{K: 512}, r, rng)
			if err != nil {
				return nil, err
			}
			means[i] = core.MeanPhi(reps)
		}
		addPhis(out, "replications", fmt.Sprintf("mean of %d stratified k=512", r), means)
	}
	if err := packetMethods(out, "jitter", "", size, 512); err != nil {
		return nil, err
	}
	for _, trend := range []float64{0, 1.5} {
		cfg := traffgen.SmallTrace(31)
		cfg.Envelope.TrendPerHour = trend
		if err := generated(out, cfg, "trend", fmt.Sprintf("trend %.1f/h ", trend), 128); err != nil {
			return nil, err
		}
	}
	// Clocks coarser than about 1 ms leave the 800–1199 µs bin empty,
	// which the evaluator refuses; the sweep stays inside that range.
	for _, clock := range []int64{1, 100, 400} {
		cfg := traffgen.SmallTrace(4004)
		cfg.ClockUS = clock
		if err := generated(out, cfg, "clock", fmt.Sprintf("%d us ", clock), 64); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// generated adds both packet methods' cells at k on the interarrival
// target of a generated population.
func generated(out *table, cfg traffgen.Config, ablation, prefix string, k int) error {
	pop, err := traffgen.Generate(cfg)
	if err != nil {
		return err
	}
	ev, err := newEvaluator(pop, core.TargetInterarrival)
	if err != nil {
		return err
	}
	return packetMethods(out, ablation, prefix, ev, k)
}

// binSchemes scores the paper's size bins against equal-width and quantile
// bins at 1-in-256, under both packet methods: do φ or the ranking move?
func binSchemes(out *table, tr *trace.Trace) error {
	quantile, err := quantileInteriorEdges(tr.Sizes(), 5)
	if err != nil {
		return err
	}
	equal, err := bins.NewEdged("equal-width", []float64{300, 600, 900, 1200})
	if err != nil {
		return err
	}
	byQuantile, err := bins.NewEdged("quantile", quantile)
	if err != nil {
		return err
	}
	for _, scheme := range []*bins.Edged{bins.PacketSize(), equal, byQuantile} {
		ev, err := core.NewEvaluator(tr, core.TargetSize, scheme)
		if err == nil {
			err = packetMethods(out, "bins", scheme.Name()+" ", ev, 256)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// quantileInteriorEdges derives interior bin edges at the nbins-quantiles
// of xs, collapsing duplicates (packet sizes are heavily tied at 40/552).
func quantileInteriorEdges(xs []float64, nbins int) ([]float64, error) {
	fracs := make([]float64, nbins-1)
	for i := range fracs {
		fracs[i] = float64(i+1) / float64(nbins)
	}
	qs, err := stats.Quantiles(xs, fracs...)
	if err != nil {
		return nil, err
	}
	var edges []float64
	for _, q := range qs {
		if len(edges) == 0 || q > edges[len(edges)-1] {
			edges = append(edges, q)
		}
	}
	return edges, nil
}

// timerEdge scores systematic timer sampling under the paper's
// next-arrival rule and the previous-arrival alternative, on both
// targets at three granularities.
func timerEdge(out *table, tr *trace.Trace, size *core.Evaluator) error {
	iat, err := newEvaluator(tr, core.TargetInterarrival)
	if err != nil {
		return err
	}
	for _, ev := range []*core.Evaluator{size, iat} {
		for _, k := range []int{16, 64, 256} {
			for _, rule := range []string{"next", "previous"} {
				reps, err := systematicTimerOffsets(ev, k, ablationReps, rule == "previous")
				if err != nil {
					return err
				}
				addPhis(out, "timer-edge", fmt.Sprintf("%s k=%d %s-arrival", ev.Target(), k, rule), core.PhiValues(reps))
			}
		}
	}
	return nil
}

// packetMethods adds the cells of both packet methods at k: systematic
// (a fixed position in each k-packet bucket) over start phases and
// stratified (a random position) over draws of a seed.
func packetMethods(out *table, ablation, prefix string, ev *core.Evaluator, k int) error {
	sys, err := core.SystematicOffsets(ev, k, ablationReps, nil)
	if err != nil {
		return err
	}
	str, err := core.Replicate(ev, core.StratifiedCount{K: k}, ablationReps, dist.NewRNG(uint64(k)))
	if err != nil {
		return err
	}
	addPhis(out, ablation, fmt.Sprintf("%ssystematic k=%d", prefix, k), core.PhiValues(sys))
	addPhis(out, ablation, fmt.Sprintf("%sstratified k=%d", prefix, k), core.PhiValues(str))
	return nil
}

// addPhis adds one cell's row, its φ values summarized as their median
// and IQR. Every cell has ablationReps values, so Quantiles cannot fail.
func addPhis(out *table, ablation, cell string, phis []float64) {
	q, _ := stats.Quantiles(phis, 0.25, 0.5, 0.75)
	out.addRow(str(ablation), str(cell), integer(len(phis)), float(q[1]), float(q[2]-q[0]))
}
