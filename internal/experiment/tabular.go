package experiment

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"netsample/internal/stats"
)

// WriteCSV renders a result's table as CSV with a leading id column.
func WriteCSV(w io.Writer, r Result) error {
	cols, rows := r.Table()
	cw := csv.NewWriter(w)
	if err := cw.Write(append([]string{"artifact"}, cols...)); err != nil {
		return err
	}
	for _, row := range rows {
		if err := cw.Write(append([]string{r.ID()}, row...)); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// jsonDoc is the JSON export shape.
type jsonDoc struct {
	ID      string     `json:"id"`
	Title   string     `json:"title"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
}

// WriteJSON renders a result's table as a JSON document.
func WriteJSON(w io.Writer, r Result) error {
	cols, rows := r.Table()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(jsonDoc{ID: r.ID(), Title: r.Title(), Columns: cols, Rows: rows})
}

// WriteAllFormat renders every result in the requested format:
// "text" (default; WriteAll), "csv" or "json".
func WriteAllFormat(w io.Writer, results []Result, format string) error {
	var write func(io.Writer, Result) error
	switch format {
	case "", "text":
		return WriteAll(w, results)
	case "csv":
		write = WriteCSV
	case "json":
		write = WriteJSON
	default:
		return fmt.Errorf("experiment: unknown format %q", format)
	}
	for _, r := range results {
		if err := write(w, r); err != nil {
			return err
		}
	}
	return nil
}

// f formats a float compactly for export.
func f(v float64) string { return strconv.FormatFloat(v, 'g', 8, 64) }

// d formats an int for export.
func d(v int) string { return strconv.Itoa(v) }

// u formats a uint64 for export.
func u(v uint64) string { return strconv.FormatUint(v, 10) }

// --- Table() implementations -----------------------------------------------------

// Table implements Result.
func (r *Table1Result) Table() ([]string, [][]string) {
	cols := []string{"object", "t1", "t3"}
	var rows [][]string
	mark := func(b bool) string {
		if b {
			return "Y"
		}
		return "N/A"
	}
	for _, name := range r.Objects {
		rows = append(rows, []string{name, mark(r.T1[name]), mark(r.T3[name])})
	}
	return cols, rows
}

// Table implements Result.
func (r *Table2Result) Table() ([]string, [][]string) {
	cols := []string{"distribution", "min", "p25", "median", "p75", "max", "mean", "stddev", "skew", "kurtosis"}
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{row.Name, f(row.Min), f(row.Q25), f(row.Median),
			f(row.Q75), f(row.Max), f(row.Mean), f(row.StdDev), f(row.Skew), f(row.Kurtosis)})
	}
	return cols, rows
}

// Table implements Result.
func (r *Table3Result) Table() ([]string, [][]string) {
	cols := []string{"distribution", "min", "p5", "p25", "median", "p75", "p95", "max", "mean", "stddev"}
	row := func(name string, s stats.PopulationSummary) []string {
		return []string{name, f(s.Min), f(s.P5), f(s.P25), f(s.Median),
			f(s.P75), f(s.P95), f(s.Max), f(s.Mean), f(s.StdDev)}
	}
	return cols, [][]string{row("packet-size", r.Size), row("interarrival-us", r.Interarrival)}
}

// Table implements Result.
func (r *Figure1Result) Table() ([]string, [][]string) {
	cols := []string{"month", "snmp", "nnstat", "sampling"}
	var rows [][]string
	for _, p := range r.Points {
		s := "off"
		if p.SamplingOn {
			s = "1-in-50"
		}
		rows = append(rows, []string{p.Month, u(p.SNMP), u(p.NNStat), s})
	}
	return cols, rows
}

// Table implements Result.
func (r *Figure3Result) Table() ([]string, [][]string) {
	cols := []string{"granularity", "n", "chi2", "significance", "cost", "rcost", "x2", "k", "phi"}
	var rows [][]string
	for _, p := range r.Points {
		rows = append(rows, []string{d(p.Granularity), d(p.SampleSize),
			f(p.Report.ChiSquare), f(p.Report.Significance), f(p.Report.Cost),
			f(p.Report.RelativeCost), f(p.Report.PaxsonX2), f(p.Report.AvgNormDev),
			f(p.Report.Phi)})
	}
	return cols, rows
}

// Table implements Result.
func (r *HistogramFigureResult) Table() ([]string, [][]string) {
	cols := []string{"bin", "population"}
	for _, k := range r.Granularities {
		cols = append(cols, "k"+d(k))
	}
	var rows [][]string
	for b, label := range r.Labels {
		row := []string{label, f(r.Population[b])}
		for g := range r.Granularities {
			row = append(row, f(r.Proportions[g][b]))
		}
		rows = append(rows, row)
	}
	phiRow := []string{"phi", "0"}
	for g := range r.Granularities {
		phiRow = append(phiRow, f(r.Phis[g]))
	}
	rows = append(rows, phiRow)
	return cols, rows
}

// Table implements Result.
func (r *Figure6Result) Table() ([]string, [][]string) {
	cols := []string{"granularity", "replications", "low", "q1", "median", "q3", "high", "outliers"}
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{d(row.Granularity), d(row.Replications),
			f(row.Box.LowWhisker), f(row.Box.Q1), f(row.Box.Median), f(row.Box.Q3),
			f(row.Box.HighWhisker), d(len(row.Box.Outliers))})
	}
	return cols, rows
}

// Table implements Result.
func (r *Figure7Result) Table() ([]string, [][]string) {
	cols := []string{"granularity", "mean_phi"}
	var rows [][]string
	for i := range r.Granularities {
		rows = append(rows, []string{d(r.Granularities[i]), f(r.Means[i])})
	}
	return cols, rows
}

// Table implements Result.
func (r *MethodsFigureResult) Table() ([]string, [][]string) {
	cols := []string{"granularity"}
	for _, s := range r.Series {
		cols = append(cols, s.Method)
	}
	var rows [][]string
	for i, k := range r.Granularities {
		row := []string{d(k)}
		for _, s := range r.Series {
			row = append(row, f(s.Means[i]))
		}
		rows = append(rows, row)
	}
	return cols, rows
}

// Table implements Result.
func (r *ElapsedFigureResult) Table() ([]string, [][]string) {
	cols := []string{"minutes"}
	for _, k := range r.Granularities {
		cols = append(cols, "k"+d(k))
	}
	var rows [][]string
	for mi, min := range r.Minutes {
		row := []string{d(min)}
		for ki := range r.Granularities {
			row = append(row, f(r.Means[ki][mi]))
		}
		rows = append(rows, row)
	}
	return cols, rows
}

// Table implements Result.
func (r *SampleSizesResult) Table() ([]string, [][]string) {
	cols := []string{"target", "mean", "stddev", "accuracy_pct", "n", "fraction"}
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{row.Target, f(row.Mean), f(row.Std),
			f(row.AccuracyPct), d(row.N), f(row.Fraction)})
	}
	return cols, rows
}

// Table implements Result.
func (r *ChiSquareAcceptanceResult) Table() ([]string, [][]string) {
	cols := []string{"target", "granularity", "replications", "rejected", "min_significance"}
	return cols, [][]string{{r.Target, d(r.Granularity), d(r.Replications),
		d(r.Rejected), f(r.MinSig)}}
}

// Table implements Result.
func (r *CategoricalFigureResult) Table() ([]string, [][]string) {
	cols := []string{"granularity", "mean_phi"}
	var rows [][]string
	for i := range r.Granularities {
		rows = append(rows, []string{d(r.Granularities[i]), f(r.Means[i])})
	}
	return cols, rows
}

// Table implements Result.
func (r *TheoryResult) Table() ([]string, [][]string) {
	cols := []string{"granularity", "population_variance", "within_variance", "ratio", "autocorrelation"}
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{d(row.K), f(row.PopulationVariance),
			f(row.MeanWithinVariance), f(row.Ratio), f(row.LagAutocorr)})
	}
	return cols, rows
}

// Table implements Result.
func (r *AdaptiveResult) Table() ([]string, [][]string) {
	cols := []string{"config", "truth", "estimate", "rel_error", "mean_k"}
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{row.Config, u(row.Truth), u(row.Estimate),
			f(row.RelError), f(row.MeanK)})
	}
	return cols, rows
}

// Table implements Result.
func (r *FIXWestResult) Table() ([]string, [][]string) {
	cols := []string{"environment", "packet_phi", "timer_phi"}
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{row.Environment, f(row.PacketPhi), f(row.TimerPhi)})
	}
	return cols, rows
}
