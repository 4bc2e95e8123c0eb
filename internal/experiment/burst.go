package experiment

import (
	"fmt"
	"io"

	"netsample/internal/stats"
	"netsample/internal/trace"
)

// BurstResult characterizes the parent population's burstiness: the
// index of dispersion for counts at exponentially growing timescales
// (Poisson = 1 at all scales). This is the mechanism behind Section
// 7.2's finding — timer-driven sampling "tends to miss bursty periods
// with many packets of relatively small interarrival times": the larger
// the IDC, the more packet mass hides inside bursts a periodic timer
// undersamples.
type BurstResult struct {
	WindowsUS []int64
	IDC       []float64
}

// Burst computes the IDC profile of the trace.
func Burst(tr *trace.Trace) (*BurstResult, error) {
	out := &BurstResult{
		WindowsUS: []int64{1_000, 10_000, 100_000, 1_000_000, 10_000_000},
	}
	idc, err := stats.IDCProfile(tr.Len(), func(i int) int64 { return tr.Packets[i].Time }, out.WindowsUS)
	if err != nil {
		return nil, err
	}
	out.IDC = idc
	return out, nil
}

// ID implements Result.
func (r *BurstResult) ID() string { return "ext-burst" }

// Title implements Result.
func (r *BurstResult) Title() string {
	return "burstiness profile: index of dispersion for counts vs timescale"
}

// WriteText implements Result.
func (r *BurstResult) WriteText(w io.Writer) error {
	if err := header(w, r); err != nil {
		return err
	}
	fmt.Fprintf(w, "%12s %10s %10s\n", "window", "IDC", "poisson")
	for i, win := range r.WindowsUS {
		if _, err := fmt.Fprintf(w, "%10dms %10.2f %10.1f\n",
			win/1000, r.IDC[i], 1.0); err != nil {
			return err
		}
	}
	return nil
}

// Table implements Tabular.
func (r *BurstResult) Table() ([]string, [][]string) {
	cols := []string{"window_us", "idc"}
	var rows [][]string
	for i, win := range r.WindowsUS {
		rows = append(rows, []string{fmt.Sprint(win), f(r.IDC[i])})
	}
	return cols, rows
}
