package experiment

import (
	"time"

	"netsample/internal/core"
	"netsample/internal/dist"
	"netsample/internal/trace"
	"netsample/internal/traffgen"
)

// FIXWestResult is the cross-environment robustness check of the
// paper's footnote 3: the method-class comparison repeated on the
// FIX-West interexchange population. The paper reports "the results of
// the two data sets were quite similar"; this experiment reruns the
// Figure 9 class comparison (interarrival target, where the effect is
// strongest) on both environments.
type FIXWestResult struct {
	table
	Rows []FIXWestRow
}

// FIXWestRow is one environment's packet-class vs timer-class mean φ.
type FIXWestRow struct {
	Environment string
	PacketPhi   float64
	TimerPhi    float64
}

// FIXWest runs the comparison. The SDSC numbers come from the supplied
// parent trace; the FIX-West population is generated at a matching
// duration.
func FIXWest(sdsc *trace.Trace) (*FIXWestResult, error) {
	out := &FIXWestResult{table: newTable("ext-fixwest", "footnote 3: method-class comparison on the FIX-West environment",
		column{"environment", "environment", "%-14s"}, column{"packet_phi", "packet-phi", "%12.5f"},
		column{"timer_phi", "timer-phi", "%12.5f"}, column{"ratio", "ratio", "%8.1f"})}
	row, err := fixwestRow("SDSC/E-NSS", sdsc)
	if err != nil {
		return nil, err
	}
	out.add(row)

	cfg := traffgen.FIXWest()
	cfg.Duration = sdsc.Duration().Round(time.Second)
	if cfg.Duration < time.Minute {
		cfg.Duration = time.Minute
	}
	fw, err := traffgen.Generate(cfg)
	if err != nil {
		return nil, err
	}
	row, err = fixwestRow("FIX-West", fw)
	if err != nil {
		return nil, err
	}
	out.add(row)
	return out, nil
}

// add appends one environment's row and its timer-to-packet φ ratio.
func (r *FIXWestResult) add(row FIXWestRow) {
	r.Rows = append(r.Rows, row)
	ratio := 0.0
	if row.PacketPhi > 0 {
		ratio = row.TimerPhi / row.PacketPhi
	}
	r.addRow(str(row.Environment), float(row.PacketPhi), float(row.TimerPhi), float(ratio))
}

// fixwestRow computes the class means at a mid granularity for one
// environment.
func fixwestRow(name string, tr *trace.Trace) (FIXWestRow, error) {
	ev, err := newEvaluator(tr, core.TargetInterarrival)
	if err != nil {
		return FIXWestRow{}, err
	}
	const k = 64
	const reps = 5
	r := dist.NewRNG(0xF1F1)
	var packetPhi float64
	{
		sys, err := core.SystematicOffsets(ev, k, reps, r)
		if err != nil {
			return FIXWestRow{}, err
		}
		str, err := core.Replicate(ev, core.StratifiedCount{K: k}, reps, r)
		if err != nil {
			return FIXWestRow{}, err
		}
		rnd, err := core.Replicate(ev, core.SimpleRandom{K: k}, reps, r)
		if err != nil {
			return FIXWestRow{}, err
		}
		packetPhi = (core.MeanPhi(sys) + core.MeanPhi(str) + core.MeanPhi(rnd)) / 3
	}
	var timerPhi float64
	{
		st, err := core.NewSystematicTimer(tr, k, 0)
		if err != nil {
			return FIXWestRow{}, err
		}
		sysT, err := core.Replicate(ev, st, 1, r)
		if err != nil {
			return FIXWestRow{}, err
		}
		rt, err := core.NewStratifiedTimer(tr, k)
		if err != nil {
			return FIXWestRow{}, err
		}
		strT, err := core.Replicate(ev, rt, reps, r)
		if err != nil {
			return FIXWestRow{}, err
		}
		timerPhi = (core.MeanPhi(sysT) + core.MeanPhi(strT)) / 2
	}
	return FIXWestRow{Environment: name, PacketPhi: packetPhi, TimerPhi: timerPhi}, nil
}
