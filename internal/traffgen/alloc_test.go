package traffgen

import "testing"

// TestGenerateAllocs pins the generator's allocation budget. A
// SmallTrace run emits ~50k packets across ~4500 flows; before the
// scratch-flow rework, every flow cost two heap allocations (a Split
// RNG and a flow struct), ~7200 allocs per trace.
// With per-model scratch flows and in-place RNG splitting, Generate
// allocates a small constant independent of flow count: the event
// staging buffer, the trace itself, the address pool, the envelope, and
// a handful of model/sort temporaries.
func TestGenerateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed under -race")
	}
	cfg := SmallTrace(1)
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := Generate(cfg); err != nil {
			t.Fatalf("Generate: %v", err)
		}
	})
	// Measured ~50; the bound leaves headroom for toolchain noise
	// while still catching any per-flow regression (~4500 flows).
	if allocs > 200 {
		t.Errorf("Generate allocated %.0f times per run, want <= 200", allocs)
	}
}
