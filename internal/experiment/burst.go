package experiment

import (
	"netsample/internal/stats"
	"netsample/internal/trace"
)

// Burst characterizes the parent population's burstiness: the index of
// dispersion for counts at exponentially growing timescales (Poisson =
// 1 at all scales). This is the mechanism behind Section
// 7.2's finding — timer-driven sampling "tends to miss bursty periods
// with many packets of relatively small interarrival times": the larger
// the IDC, the more packet mass hides inside bursts a periodic timer
// undersamples.
func Burst(tr *trace.Trace) (Result, error) {
	windowsUS := []int64{1_000, 10_000, 100_000, 1_000_000, 10_000_000}
	idc, err := stats.IDCProfile(tr.Len(), func(i int) int64 { return tr.Packets[i].Time }, windowsUS)
	if err != nil {
		return nil, err
	}
	out := newTable("ext-burst", "burstiness profile: index of dispersion for counts vs timescale",
		column{"window_ms", "window", "%10dms"}, column{"idc", "IDC", "%10.2f"}, column{"poisson", "poisson", "%10.1f"})
	for i, win := range windowsUS {
		out.addRow(integer(win/1000), float(idc[i]), float(1))
	}
	return out, nil
}
