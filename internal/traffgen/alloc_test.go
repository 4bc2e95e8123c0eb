package traffgen

import (
	"math"
	"runtime"
	"slices"
	"testing"
	"time"

	"netsample/internal/dist"
	"netsample/internal/fanout"
	"netsample/internal/trace"
)

// TestGenerateAllocs pins the generator's allocation budget. A
// SmallTrace run emits ~50k packets across ~4500 flows; before the
// scratch-flow rework, every flow cost two heap allocations (a Split
// RNG and a flow struct), ~7200 allocs per trace.
// With per-model scratch flows and in-place RNG reseeding, Generate
// allocates a small constant independent of flow count, and its
// per-call setup is carved too: the packet buffer and the trace, the
// sort's two key scratches, the envelope and its weight table, the
// address pool with one host array and two pick tables (one
// allocation a table), the six mix models in one padded set, and the
// stager holding the root and flow RNGs.
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
	// Measured 12; the bound leaves headroom for toolchain noise
	// while catching any per-flow regression (~4500 flows) and most
	// per-run or per-host ones.
	if allocs > 15 {
		t.Errorf("Generate allocated %.0f times per run, want <= 15", allocs)
	}
}

// stagedBytes is the size of the one packet buffer a trace of
// totalPackets target packets may stage: 24 B per packet over the
// models' 1.02 overshoot, plus 10 % and a constant for everything else
// a run allocates (address pool, envelope, models: ~11 KB measured).
func stagedBytes(totalPackets float64) uint64 {
	return uint64(1.1*24*math.Ceil(1.02*totalPackets)) + 32<<10
}

// allocatedBytes reports the heap bytes f allocates.
func allocatedBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestGenerateBytes pins the staging contract by weight: the trace's
// own buffer is the only large allocation, so a second buffer (the old
// event slab + copy) or a single growth of the first fails here.
func TestGenerateBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation sizes are perturbed under -race")
	}
	cfg := SmallTrace(1)
	got := allocatedBytes(func() {
		if _, err := Generate(cfg); err != nil {
			t.Fatalf("Generate: %v", err)
		}
	})
	if want := stagedBytes(cfg.TargetPPS * cfg.Duration.Seconds()); got > want {
		t.Errorf("Generate allocated %d B, want <= %d", got, want)
	}
}

// TestScenarioBufferContract checks, for every preset and for Mix
// phases with zero-weight models, that the returned slice is clipped
// and that staging never outgrew its up-front capacity (a growth would
// allocate a second, larger array and more than double the bytes). The
// three-minute ddos stages over fanout.MinPackets packets, so on two to
// four workers its runs fill reserved segments, the SYN flood's in flow
// blocks: they too must never regrow, and the workers' block scratch
// must fit in the slack.
func TestScenarioBufferContract(t *testing.T) {
	const dur = time.Minute
	var scenarios []Scenario
	for _, name := range ScenarioNames() {
		s, err := PresetScenario(name, 5, dur)
		if err != nil {
			t.Fatal(err)
		}
		scenarios = append(scenarios, s)
	}
	long, err := PresetScenario("ddos", 5, 3*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	long.Name = "ddos-3min"
	scenarios = append(scenarios, long)
	// Two to four workers, as each adds sort and block scratch that
	// stagedBytes's slack does not scale with; the deferred call
	// restores the setting.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(min(4, max(2, runtime.GOMAXPROCS(0)))))
	sparse := SmallTrace(5)
	sparse.Mix = Mix{Bulk: 1}
	scenarios = append(scenarios, Scenario{Name: "one-model", Base: sparse}, Scenario{
		Name: "sparse-mix-phases", Base: sparse,
		Phases: []Phase{
			{Name: "a", Start: 0, End: 0.5, TargetPPS: 900, Mix: &Mix{Telnet: 1, ICMP: 2}},
			{Name: "b", Start: 0.25, End: 1, TargetPPS: 300, Mix: &Mix{Mail: 1}},
		},
	})
	for _, s := range scenarios {
		total := s.Base.TargetPPS * s.Base.Duration.Seconds()
		for _, ph := range s.Phases {
			total += ph.TargetPPS * (ph.End - ph.Start) * s.Base.Duration.Seconds()
		}
		if s.Name == long.Name {
			capacity, workers := s.capacity(), runtime.GOMAXPROCS(0)
			if fanout.Workers(capacity) != workers {
				t.Fatalf("%s: %d packets no longer stage on %d workers", s.Name, capacity, workers)
			}
			_, _, flood := s.Phases[0].window(s.Base.Duration.Microseconds())
			if !blockStaged(segmentCap(flood), capacity, workers) {
				t.Fatalf("%s: the flood's %d packets of %d are not staged in blocks on %d workers", s.Name, segmentCap(flood), capacity, workers)
			}
		}
		var tr *trace.Trace
		got := allocatedBytes(func() {
			var err error
			if tr, err = GenerateScenario(s); err != nil {
				t.Fatalf("%s: %v", s.Name, err)
			}
		})
		if len(tr.Packets) != cap(tr.Packets) {
			t.Errorf("%s: len %d != cap %d: staging slack is reachable by append", s.Name, len(tr.Packets), cap(tr.Packets))
		}
		if want := stagedBytes(total); !raceEnabled && got > want {
			t.Errorf("%s: allocated %d B, want <= %d (one buffer, never regrown)", s.Name, got, want)
		}
	}
}

// TestEmissionBoundHolds drives the staging plan directly at the bound's
// edge — targets below one packet, where every model still emits its
// one, and fractional shares. Staged on the spot, each run must stay in
// its segment: one that outgrew it would be reallocated, leaving unwritten
// (zero) packets in the buffer. Reserved back to back in emissionBound
// and staged on two or three workers (a lone model's run in flow
// blocks), the runs must close up to the same packets.
//
// Single runs are then staged serially and in flow blocks of one flow,
// an odd count and more flows than the run has, on one to three
// workers, and must stage the same packets. The bulk and elephant
// targets include runs that end in a flow cut at the limit, and the
// port scan reads each flow's port off its index in the run.
func TestEmissionBoundHolds(t *testing.T) {
	mixes := []Mix{DefaultMix(), {Bulk: 1}, {Telnet: 1e-9, Ack: 1, ICMP: 3}, {Transaction: 0.5, Mail: 0.5}}
	for _, mix := range mixes {
		for _, total := range []float64{0.01, 1, 5.5, 49, 50, 1000.49, 20000} {
			var staged [3][]trace.Packet
			for workers := 1; workers <= 3; workers++ {
				root := dist.NewRNG(uint64(total * 100))
				env, err := newEnvelope(EnvelopeConfig{}, root.Split(), 60e6)
				if err != nil {
					t.Fatal(err)
				}
				st := stager{pkts: make([]trace.Packet, 0, emissionBound(total)), addrs: newAddressPool(ProfileSDSC, root.Split())}
				st.root = *root
				buf := st.pkts[:1]
				if workers > 1 {
					st.plan = []run{}
				}
				st.addMix(mix, total, 60e6, 0, env)
				out := st.pkts
				if st.plan != nil {
					out = stageParallel(st.pkts, st.plan, workers)
				}
				if len(out) == 0 {
					t.Fatalf("mix %+v total %v: nothing emitted", mix, total)
				}
				if &out[0] != &buf[0] || slices.ContainsFunc(out, func(p trace.Packet) bool { return p.Size == 0 }) {
					t.Errorf("mix %+v total %v, %d workers: %d packets outgrew their segments", mix, total, workers, len(out))
				}
				slices.SortFunc(out, comparePackets)
				staged[workers-1] = out
			}
			for w := 1; w < len(staged); w++ {
				if !slices.Equal(staged[0], staged[w]) {
					t.Errorf("mix %+v total %v: one and %d workers staged different packets", mix, total, w+1)
				}
			}
		}
	}

	bulk := func(*dist.RNG, *addressPool) sourceModel { return &bulkModel{} }
	singles := []struct {
		name    string
		model   func(*dist.RNG, *addressPool) sourceModel
		targets []float64
		big     int // flows in a block, more than any of the runs has
	}{
		{"bulk", bulk, []float64{0.5, 10, 4000}, 1 << 10},
		{"elephant", newElephantModel, []float64{1, 2500, 9000}, 16},
		{"portscan", newPortScanModel, []float64{3, 1000, 20000}, 1 << 15},
		{"synflood", newSYNFloodModel, []float64{2, 3000}, 1 << 12},
	}
	for _, c := range singles {
		cut := 0
		for _, target := range c.targets {
			newRun := func() *run {
				root := dist.NewRNG(uint64(target) + 7)
				env, err := newEnvelope(EnvelopeConfig{Sigma: 0.3, Rho: 0.9, EpochSeconds: 5}, root.Split(), 600e6)
				if err != nil {
					t.Fatal(err)
				}
				addrs := newAddressPool(ProfileSDSC, root.Split())
				r := &run{model: c.model(root.Split(), addrs), target: target, durUS: 600e6, shiftUS: 5e6,
					env: env, addrs: addrs, seg: make([]trace.Packet, 0, segmentCap(target))}
				root.SplitInto(&r.rng)
				return r
			}
			want := newRun()
			want.stage()
			if _, limit := want.bounds(); len(want.seg) == limit {
				cut++
			}
			slices.SortFunc(want.seg, comparePackets)
			for workers := 1; workers <= 3; workers++ {
				for _, flows := range []int{1, 7, c.big} {
					r := newRun()
					stageBlocks(r, workers, flows)
					slices.SortFunc(r.seg, comparePackets)
					if !slices.Equal(r.seg, want.seg) {
						t.Errorf("%s target %v: %d workers, blocks of %d flows staged %d packets, serially %d (or different ones)",
							c.name, target, workers, flows, len(r.seg), len(want.seg))
					}
				}
			}
		}
		if (c.name == "bulk" || c.name == "elephant") && cut == 0 {
			t.Errorf("%s: no run ends in a flow cut at the limit", c.name)
		}
	}
}
