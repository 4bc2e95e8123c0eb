package experiment

import (
	"fmt"
	"io"

	"netsample/internal/core"
	"netsample/internal/dist"
	"netsample/internal/trace"
)

// Figure2Result renders the paper's schematic of the three sampling
// algorithms as a worked miniature: a 24-packet population, k = 4, one
// concrete selection per scheme. Unlike the paper's static diagram the
// rendering is generated by actually running the samplers, so it doubles
// as a readable demonstration that the implementations follow the
// schematic.
type Figure2Result struct {
	N, K       int
	Systematic []int
	Stratified []int
	Random     []int
}

// Figure2 produces the worked schematic.
func Figure2() (*Figure2Result, error) {
	const n, k = 24, 4
	tr := &trace.Trace{}
	for i := 0; i < n; i++ {
		tr.Packets = append(tr.Packets, trace.Packet{Time: int64(i) * 1000, Size: 100})
	}
	r := dist.NewRNG(2)
	out := &Figure2Result{N: n, K: k}
	var err error
	if out.Systematic, err = (core.SystematicCount{K: k}).Select(tr, nil); err != nil {
		return nil, err
	}
	if out.Stratified, err = (core.StratifiedCount{K: k}).Select(tr, r); err != nil {
		return nil, err
	}
	if out.Random, err = (core.SimpleRandom{K: k}).Select(tr, r); err != nil {
		return nil, err
	}
	return out, nil
}

// ID implements Result.
func (r *Figure2Result) ID() string { return "figure2" }

// Title implements Result.
func (r *Figure2Result) Title() string {
	return fmt.Sprintf("schematic of the three sampling algorithms (n=%d, k=%d)", r.N, r.K)
}

// row renders one selection pattern as a packet strip.
func (r *Figure2Result) row(selected []int) string {
	sel := map[int]bool{}
	for _, i := range selected {
		sel[i] = true
	}
	line := make([]byte, 0, 2*r.N)
	for i := 0; i < r.N; i++ {
		if i > 0 && i%r.K == 0 {
			line = append(line, '|')
		}
		if sel[i] {
			line = append(line, 'X')
		} else {
			line = append(line, '.')
		}
	}
	return string(line)
}

// WriteText implements Result.
func (r *Figure2Result) WriteText(w io.Writer) error {
	if err := header(w, r); err != nil {
		return err
	}
	fmt.Fprintf(w, "%-12s %s   take every k-th packet\n", "systematic:", r.row(r.Systematic))
	fmt.Fprintf(w, "%-12s %s   take one random packet per bucket of k\n", "stratified:", r.row(r.Stratified))
	fmt.Fprintf(w, "%-12s %s   take n/k random packets from the whole set\n", "random:", r.row(r.Random))
	_, err := fmt.Fprintln(w, "(X = selected, . = passed over, | = bucket boundary)")
	return err
}

// Table implements Result.
func (r *Figure2Result) Table() ([]string, [][]string) {
	cols := []string{"scheme", "selected_indices"}
	render := func(idx []int) string {
		s := ""
		for i, v := range idx {
			if i > 0 {
				s += " "
			}
			s += d(v)
		}
		return s
	}
	return cols, [][]string{
		{"systematic", render(r.Systematic)},
		{"stratified", render(r.Stratified)},
		{"random", render(r.Random)},
	}
}
