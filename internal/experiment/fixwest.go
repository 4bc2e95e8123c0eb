package experiment

import (
	"time"

	"netsample/internal/core"
	"netsample/internal/dist"
	"netsample/internal/trace"
	"netsample/internal/traffgen"
)

// FIXWest is the cross-environment robustness check of the paper's
// footnote 3: the method-class comparison repeated on the FIX-West
// interexchange population. The paper reports "the results of the two
// data sets were quite similar"; this experiment reruns the Figure 9
// class comparison (interarrival target, where the effect is strongest)
// on both environments. The SDSC numbers come from the supplied parent
// trace; the FIX-West population is generated at a matching duration.
func FIXWest(sdsc *trace.Trace) (Result, error) {
	out := newTable("ext-fixwest", "footnote 3: method-class comparison on the FIX-West environment",
		column{"environment", "environment", "%-14s"}, column{"packet_phi", "packet-phi", "%12.5f"},
		column{"timer_phi", "timer-phi", "%12.5f"}, column{"ratio", "ratio", "%8.1f"})
	if err := addFIXWestRow(out, "SDSC/E-NSS", sdsc); err != nil {
		return nil, err
	}

	cfg := traffgen.FIXWest()
	cfg.Duration = sdsc.Duration().Round(time.Second)
	if cfg.Duration < time.Minute {
		cfg.Duration = time.Minute
	}
	fw, err := traffgen.Generate(cfg)
	if err != nil {
		return nil, err
	}
	if err := addFIXWestRow(out, "FIX-West", fw); err != nil {
		return nil, err
	}
	return out, nil
}

// addFIXWestRow appends one environment's row: its packet-class and
// timer-class mean φ at a mid granularity, and their ratio.
func addFIXWestRow(out *table, name string, tr *trace.Trace) error {
	ev, err := newEvaluator(tr, core.TargetInterarrival)
	if err != nil {
		return err
	}
	const k = 64
	const reps = 5
	r := dist.NewRNG(0xF1F1)
	var packetPhi float64
	{
		sys, err := core.SystematicOffsets(ev, k, reps, r)
		if err != nil {
			return err
		}
		str, err := core.Replicate(ev, core.StratifiedCount{K: k}, reps, r)
		if err != nil {
			return err
		}
		rnd, err := core.Replicate(ev, core.SimpleRandom{K: k}, reps, r)
		if err != nil {
			return err
		}
		packetPhi = (core.MeanPhi(sys) + core.MeanPhi(str) + core.MeanPhi(rnd)) / 3
	}
	var timerPhi float64
	{
		st, err := core.NewSystematicTimer(tr, k, 0)
		if err != nil {
			return err
		}
		sysT, err := core.Replicate(ev, st, 1, r)
		if err != nil {
			return err
		}
		rt, err := core.NewStratifiedTimer(tr, k)
		if err != nil {
			return err
		}
		strT, err := core.Replicate(ev, rt, reps, r)
		if err != nil {
			return err
		}
		timerPhi = (core.MeanPhi(sysT) + core.MeanPhi(strT)) / 2
	}
	ratio := 0.0
	if packetPhi > 0 {
		ratio = timerPhi / packetPhi
	}
	out.addRow(str(name), float(packetPhi), float(timerPhi), float(ratio))
	return nil
}
