package benchjson

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Delta is one benchmark's ns/op movement between two runs.
type Delta struct {
	// Name is the benchmark's full name including the -N GOMAXPROCS
	// suffix, so the same benchmark at different -cpu counts diffs as
	// distinct series.
	Name string
	// Procs is the GOMAXPROCS the benchmark ran at (1 when unsuffixed),
	// grouping the per-procs geomeans.
	Procs int
	OldNs float64
	NewNs float64
	// Ratio is NewNs/OldNs: 1.10 means 10% slower, 0.90 means 10%
	// faster.
	Ratio float64
}

// ProcsGeomean is the geometric-mean ratio of the deltas at one
// GOMAXPROCS value. Scaling-curve suites (-cpu 1,2,4) regress at one
// procs count while improving at another; a single suite-wide geomean
// averages that away, so the per-procs grouping is what trend and gate
// decisions should read.
type ProcsGeomean struct {
	Procs int
	// N is the number of deltas at this procs value.
	N     int
	Ratio float64
}

// Comparison diffs two benchmark files by benchmark name.
type Comparison struct {
	// Deltas covers benchmarks present in both files with a positive
	// ns/op on both sides, sorted by descending Ratio (worst regression
	// first).
	Deltas []Delta
	// OnlyOld and OnlyNew list benchmarks present in just one file.
	OnlyOld []string
	OnlyNew []string
	// GeomeanRatio is the geometric mean of all ratios — the suite-wide
	// slowdown factor. 1.0 when Deltas is empty.
	GeomeanRatio float64
	// ByProcs holds the geomean per GOMAXPROCS value, ascending.
	ByProcs []ProcsGeomean
}

// Compare diffs the current run against a baseline. Benchmarks are
// matched by full name including the -N GOMAXPROCS suffix (so -cpu
// 1,2,4 series pair count-for-count); a name appearing multiple times
// (e.g. -count > 1) uses its first occurrence on each side.
func Compare(old, cur *File) Comparison {
	c := Comparison{GeomeanRatio: 1}
	oldNs := make(map[string]float64, len(old.Benchmarks))
	for i := range old.Benchmarks {
		name := old.Benchmarks[i].FullName()
		if _, dup := oldNs[name]; !dup {
			oldNs[name] = old.Benchmarks[i].NsPerOp
		}
	}
	seen := make(map[string]bool, len(cur.Benchmarks))
	var logSum float64
	procsLog := make(map[int]float64)
	procsN := make(map[int]int)
	for i := range cur.Benchmarks {
		b := &cur.Benchmarks[i]
		name := b.FullName()
		if seen[name] {
			continue
		}
		seen[name] = true
		o, ok := oldNs[name]
		if !ok {
			c.OnlyNew = append(c.OnlyNew, name)
			continue
		}
		if o <= 0 || b.NsPerOp <= 0 {
			continue
		}
		procs := b.Procs
		if procs < 1 {
			procs = 1
		}
		d := Delta{Name: name, Procs: procs, OldNs: o, NewNs: b.NsPerOp, Ratio: b.NsPerOp / o}
		c.Deltas = append(c.Deltas, d)
		logSum += math.Log(d.Ratio)
		procsLog[procs] += math.Log(d.Ratio)
		procsN[procs]++
	}
	for i := range old.Benchmarks {
		name := old.Benchmarks[i].FullName()
		if !seen[name] {
			c.OnlyOld = append(c.OnlyOld, name)
			seen[name] = true
		}
	}
	sort.Strings(c.OnlyOld)
	sort.Strings(c.OnlyNew)
	sort.Slice(c.Deltas, func(i, j int) bool {
		//nslint:allow floateq sort tie-break, not an equality decision
		if c.Deltas[i].Ratio != c.Deltas[j].Ratio {
			return c.Deltas[i].Ratio > c.Deltas[j].Ratio
		}
		return c.Deltas[i].Name < c.Deltas[j].Name
	})
	if len(c.Deltas) > 0 {
		c.GeomeanRatio = math.Exp(logSum / float64(len(c.Deltas)))
	}
	for procs, n := range procsN {
		c.ByProcs = append(c.ByProcs, ProcsGeomean{
			Procs: procs,
			N:     n,
			Ratio: math.Exp(procsLog[procs] / float64(n)),
		})
	}
	sort.Slice(c.ByProcs, func(i, j int) bool { return c.ByProcs[i].Procs < c.ByProcs[j].Procs })
	return c
}

// Regressions returns the deltas slower than the tolerance factor
// (e.g. 1.25 flags benchmarks more than 25% slower than the baseline).
func (c Comparison) Regressions(tolerance float64) []Delta {
	var out []Delta
	for _, d := range c.Deltas {
		if d.Ratio > tolerance {
			out = append(out, d)
		}
	}
	return out
}

// Vacuous returns an error when no benchmark was compared at all — the
// selection ran nothing, or nothing it ran has a baseline row — so a
// gate over Regressions would pass without having looked at anything,
// as it does after a benchmark is renamed or deleted on one side only.
func (c Comparison) Vacuous() error {
	if len(c.Deltas) > 0 {
		return nil
	}
	return fmt.Errorf("no benchmark was compared: run without a baseline row (OnlyNew) %v, baseline rows not run (OnlyOld) %v",
		c.OnlyNew, c.OnlyOld)
}

// Format renders the comparison as a human-readable table, flagging
// deltas beyond the tolerance factor.
func (c Comparison) Format(tolerance float64) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-44s %14s %14s %8s\n", "benchmark", "old ns/op", "new ns/op", "ratio")
	for _, d := range c.Deltas {
		mark := ""
		if d.Ratio > tolerance {
			mark = "  << regression"
		}
		fmt.Fprintf(&sb, "%-44s %14.1f %14.1f %7.3fx%s\n",
			d.Name, d.OldNs, d.NewNs, d.Ratio, mark)
	}
	for _, n := range c.OnlyNew {
		fmt.Fprintf(&sb, "%-44s %14s %14s\n", n, "(new)", "-")
	}
	for _, n := range c.OnlyOld {
		fmt.Fprintf(&sb, "%-44s %14s %14s\n", n, "-", "(removed)")
	}
	// A scaling-curve suite mixes GOMAXPROCS variants of the same
	// benchmark; the per-procs geomeans keep a regression at one procs
	// count from being averaged away by an improvement at another.
	if len(c.ByProcs) > 1 {
		for _, g := range c.ByProcs {
			fmt.Fprintf(&sb, "geomean ratio at procs=%d over %d benchmarks: %.3fx\n",
				g.Procs, g.N, g.Ratio)
		}
	}
	fmt.Fprintf(&sb, "geomean ratio over %d benchmarks: %.3fx (tolerance %.2fx)\n",
		len(c.Deltas), c.GeomeanRatio, tolerance)
	return sb.String()
}
