package experiment

import (
	"fmt"
	"strings"

	"netsample/internal/core"
	"netsample/internal/dist"
	"netsample/internal/trace"
)

// Figure2 renders the paper's schematic of the three sampling
// algorithms as a worked miniature: a 24-packet population, k = 4, one
// concrete selection per scheme. Unlike the paper's static diagram the
// rendering is generated by actually running the samplers, so it
// doubles as a readable demonstration that the implementations follow
// the schematic.
func Figure2() (Result, error) {
	const n, k = 24, 4
	tr := &trace.Trace{}
	for i := 0; i < n; i++ {
		tr.Packets = append(tr.Packets, trace.Packet{Time: int64(i) * 1000, Size: 100})
	}
	r := dist.NewRNG(2)
	sys, err := (core.SystematicCount{K: k}).Select(tr, nil)
	if err != nil {
		return nil, err
	}
	strat, err := (core.StratifiedCount{K: k}).Select(tr, r)
	if err != nil {
		return nil, err
	}
	rnd, err := (core.SimpleRandom{K: k}).Select(tr, r)
	if err != nil {
		return nil, err
	}
	out := newTable("figure2", fmt.Sprintf("schematic of the three sampling algorithms (n=%d, k=%d)", n, k),
		column{name: "scheme"}, column{name: "selected_indices"})
	for _, s := range []struct {
		scheme, does string
		selected     []int
	}{
		{"systematic", "take every k-th packet", sys},
		{"stratified", "take one random packet per bucket of k", strat},
		{"random", "take n/k random packets from the whole set", rnd},
	} {
		out.addRow(str(s.scheme), str(strings.Trim(fmt.Sprint(s.selected), "[]")))
		out.below = append(out.below, fmt.Sprintf("%-12s %s   %s", s.scheme+":", strip(n, k, s.selected), s.does))
	}
	out.below = append(out.below, "(X = selected, . = passed over, | = bucket boundary)")
	return out, nil
}

// strip renders one selection pattern of n packets in buckets of k as
// a packet strip.
func strip(n, k int, selected []int) string {
	sel := map[int]bool{}
	for _, i := range selected {
		sel[i] = true
	}
	line := make([]byte, 0, 2*n)
	for i := 0; i < n; i++ {
		if i > 0 && i%k == 0 {
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
