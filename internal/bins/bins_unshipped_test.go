package bins

// Unshipped: no binary, example or facade name reaches what this file
// declares (nslint unreached), so it is compiled for its own tests only.
// It goes, with those tests, as the per-PR cap on test removals allows.

// Edges returns a copy of the interior edges.
func (e *Edged) Edges() []float64 { return append([]float64(nil), e.edges...) }

// CountScaled returns Count(s, xs) scaled by factor, as float64s. The
// paper scales sample counts up by the sampling granularity to compare
// them against population counts (the "expected" vector).
func CountScaled(s Scheme, xs []float64, factor float64) []float64 {
	counts := Count(s, xs)
	out := make([]float64, len(counts))
	for i, c := range counts {
		out[i] = float64(c) * factor
	}
	return out
}

// Proportions returns the fraction of observations per bin; nil for empty
// input.
func Proportions(s Scheme, xs []float64) []float64 {
	if len(xs) == 0 {
		return nil
	}
	counts := Count(s, xs)
	out := make([]float64, len(counts))
	for i, c := range counts {
		out[i] = float64(c) / float64(len(xs))
	}
	return out
}
