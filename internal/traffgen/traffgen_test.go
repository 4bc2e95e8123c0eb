package traffgen

import (
	"math"
	"strings"
	"testing"
	"time"

	"netsample/internal/core"
	"netsample/internal/dist"
	"netsample/internal/packet"
	"netsample/internal/stats"
)

func TestConfigValidate(t *testing.T) {
	good := SmallTrace(1)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.Duration = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero duration accepted")
	}
	bad = good
	bad.TargetPPS = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative rate accepted")
	}
	bad = good
	bad.ClockUS = -5
	if err := bad.Validate(); err == nil {
		t.Error("negative clock accepted")
	}
	bad = good
	bad.Mix = Mix{Telnet: -1, Ack: 1}
	// Sum is zero → invalid.
	bad.Mix = Mix{Telnet: -1, Ack: 1}
	if bad.Mix.total() > 0 {
		t.Skip("mix total positive; adjust test")
	}
	if err := bad.Validate(); err == nil {
		t.Error("non-positive mix accepted")
	}

	// Values every <= / < test lets through: each panicked in
	// emissionBound or staged a skewed or empty trace.
	nan, inf := math.NaN(), math.Inf(1)
	for name, mut := range map[string]func(c *Config){
		"pps NaN":   func(c *Config) { c.TargetPPS = nan },
		"pps +Inf":  func(c *Config) { c.TargetPPS = inf },
		"sigma Inf": func(c *Config) { c.Envelope.Sigma = inf },
		"rho NaN":   func(c *Config) { c.Envelope.Rho = nan },
		"trend NaN": func(c *Config) { c.Envelope.TrendPerHour = nan },
		"mix NaN":   func(c *Config) { c.Mix = Mix{Bulk: 1, Mail: nan} },
		"mix -Inf":  func(c *Config) { c.Mix = Mix{Bulk: 1, Mail: -inf} },
	} {
		bad = good
		mut(&bad)
		if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "finite") {
			t.Errorf("%s: got %v, want a must-be-finite error", name, err)
		}
	}
	bad = good
	bad.TargetPPS = 1e300
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "expected packet count 1.2e+302 exceeds 2^32") {
		t.Errorf("pps 1e300: got %v, want the expected count named", err)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := SmallTrace(77)
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != b.Len() {
		t.Fatalf("lengths differ: %d vs %d", a.Len(), b.Len())
	}
	for i := range a.Packets {
		if a.Packets[i] != b.Packets[i] {
			t.Fatalf("packet %d differs", i)
		}
	}
}

func TestGenerateSeedSensitivity(t *testing.T) {
	a, err := Generate(SmallTrace(1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(SmallTrace(2))
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() == b.Len() {
		same := true
		for i := range a.Packets {
			if a.Packets[i] != b.Packets[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical traces")
		}
	}
}

func TestGenerateStructuralInvariants(t *testing.T) {
	tr, err := Generate(SmallTrace(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.ClockUS != 400 {
		t.Errorf("clock = %d", tr.ClockUS)
	}
	durUS := (2 * time.Minute).Microseconds()
	for _, p := range tr.Packets {
		if p.Time < 0 || p.Time >= durUS {
			t.Fatalf("timestamp %d outside [0, %d)", p.Time, durUS)
		}
		if p.Size < 28 || p.Size > 1500 {
			t.Fatalf("size %d outside [28, 1500]", p.Size)
		}
		if p.Protocol != packet.ProtoTCP && p.Protocol != packet.ProtoUDP && p.Protocol != packet.ProtoICMP {
			t.Fatalf("unexpected protocol %v", p.Protocol)
		}
	}
}

func TestGenerateApproximateRate(t *testing.T) {
	cfg := SmallTrace(4)
	tr, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := cfg.TargetPPS * cfg.Duration.Seconds()
	got := float64(tr.Len())
	if got < want*0.9 || got > want*1.15 {
		t.Fatalf("packet count %v, want ≈ %v", got, want)
	}
}

func TestGenerateValidatesConfig(t *testing.T) {
	if _, err := Generate(Config{}); err == nil {
		t.Fatal("zero config accepted")
	}
}

// TestNonFiniteEnvelopeRefused: a finite Sigma so large that exp
// underflows in every epoch normalizes to NaN weights, which drew every
// flow start from epoch 0. The base or phase envelope must be named in
// an error instead; at Sigma 1 the same trace spans its ten minutes.
func TestNonFiniteEnvelopeRefused(t *testing.T) {
	cfg := SmallTrace(1)
	cfg.Duration = 10 * time.Minute
	cfg.Envelope.Sigma = 1
	tr, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if last := tr.Packets[tr.Len()-1].Time; last < 590e6 {
		t.Fatalf("Sigma 1: last packet at %d µs, want the trace to span 600 s", last)
	}

	cfg.Envelope.Sigma = 60
	if _, err := Generate(cfg); err == nil || !strings.Contains(err.Error(), "base envelope") {
		t.Errorf("Sigma 60: got %v, want the base envelope refused", err)
	}
	s := Scenario{Base: SmallTrace(1), Phases: []Phase{{
		Name: "surge", Start: 0, End: 1, TargetPPS: 100, Mix: &Mix{Bulk: 1},
		Envelope: EnvelopeConfig{Sigma: 60},
	}}}
	if _, err := GenerateScenario(s); err == nil || !strings.Contains(err.Error(), `phase "surge" envelope`) {
		t.Errorf("phase Sigma 60: got %v, want the phase envelope refused", err)
	}
}

// binarySearchIndex is the draw the guide tables replaced, kept as their
// reference: the smallest i <= len(cum)-1 with cum[i] > u.
func binarySearchIndex(cum []float64, u float64) int {
	lo, hi := 0, len(cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cum[mid] <= u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// TestGuidedDrawMatchesBinarySearch holds every guided draw to the
// binary search it replaced — at each running sum, on both sides of it,
// at the ends of [0, total], on NaN, and at seeded uniform draws — so
// host picks and flow starts, and with them every trace, are unchanged.
func TestGuidedDrawMatchesBinarySearch(t *testing.T) {
	type table struct {
		name string
		cumWeights
	}
	var tables []table
	for _, prof := range []Profile{ProfileSDSC, ProfileFIXWest} {
		addrs := newAddressPool(prof, dist.NewRNG(1))
		tables = append(tables, table{prof.String() + "/src", addrs.srcPick}, table{prof.String() + "/dst", addrs.dstPick})
	}
	env, err := newEnvelope(EnvelopeConfig{Sigma: 0.3, Rho: 0.9, EpochSeconds: 5, TrendPerHour: 0.8}, dist.NewRNG(2), time.Hour.Microseconds())
	if err != nil {
		t.Fatal(err)
	}
	tables = append(tables, table{"envelope", env.epochs})

	r := dist.NewRNG(3)
	for _, c := range tables {
		us := []float64{0, c.total, math.NaN()}
		for _, x := range c.cum {
			us = append(us, x, math.Nextafter(x, 0), math.Nextafter(x, math.Inf(1)))
		}
		for i := 0; i < 100_000; i++ {
			us = append(us, r.Float64()*c.total)
		}
		for _, u := range us {
			if got, want := c.search(u), binarySearchIndex(c.cum, u); got != want {
				t.Fatalf("%s (%d weights): u=%v: guided %d, binary search %d", c.name, len(c.cum), u, got, want)
			}
		}
	}
}

func TestGenerateAddressDiversity(t *testing.T) {
	tr, err := Generate(SmallTrace(5))
	if err != nil {
		t.Fatal(err)
	}
	srcNets := map[packet.Addr]bool{}
	dstNets := map[packet.Addr]bool{}
	for _, p := range tr.Packets {
		srcNets[p.Src.NetworkNumber()] = true
		dstNets[p.Dst.NetworkNumber()] = true
	}
	if len(srcNets) < 3 {
		t.Errorf("only %d source networks", len(srcNets))
	}
	if len(dstNets) < 20 {
		t.Errorf("only %d destination networks", len(dstNets))
	}
}

func TestGenerateProtocolMix(t *testing.T) {
	tr, err := Generate(SmallTrace(6))
	if err != nil {
		t.Fatal(err)
	}
	byProto := map[packet.Protocol]int{}
	for _, p := range tr.Packets {
		byProto[p.Protocol]++
	}
	total := float64(tr.Len())
	if f := float64(byProto[packet.ProtoTCP]) / total; f < 0.7 {
		t.Errorf("TCP fraction %v, want > 0.7", f)
	}
	if byProto[packet.ProtoUDP] == 0 || byProto[packet.ProtoICMP] == 0 {
		t.Error("missing UDP or ICMP traffic")
	}
}

// TestHourCalibration is the golden check that the synthetic parent
// population reproduces the paper's Table 2 and Table 3 statistics within
// engineering tolerances. It exercises the full hour (~1.5 M packets),
// so it is skipped in -short mode.
func TestHourCalibration(t *testing.T) {
	if testing.Short() {
		t.Skip("full-hour calibration skipped in -short mode")
	}
	tr, err := Hour()
	if err != nil {
		t.Fatal(err)
	}

	// Packet count: paper reports 1.6M packets in the hour.
	if n := tr.Len(); n < 1_300_000 || n > 1_800_000 {
		t.Errorf("packet count = %d, want ≈1.5M", n)
	}

	// Table 3, packet sizes: min 28, p25 40, median 76, p75 552, p95 552,
	// max 1500, mean 232, σ 236.
	profile := core.NewProfile(tr)
	pop, err := profile.Summary(core.TargetSize)
	if err != nil {
		t.Fatal(err)
	}
	if pop.Min != 28 {
		t.Errorf("size min = %v, want 28", pop.Min)
	}
	if pop.P25 != 40 {
		t.Errorf("size p25 = %v, want 40", pop.P25)
	}
	if pop.Median < 50 || pop.Median > 110 {
		t.Errorf("size median = %v, want ≈76", pop.Median)
	}
	if pop.P75 != 552 {
		t.Errorf("size p75 = %v, want 552", pop.P75)
	}
	if pop.P95 != 552 {
		t.Errorf("size p95 = %v, want 552", pop.P95)
	}
	if pop.Max != 1500 {
		t.Errorf("size max = %v, want 1500", pop.Max)
	}
	if math.Abs(pop.Mean-232) > 20 {
		t.Errorf("size mean = %v, want ≈232", pop.Mean)
	}
	if math.Abs(pop.StdDev-236) > 25 {
		t.Errorf("size σ = %v, want ≈236", pop.StdDev)
	}

	// Table 3, interarrivals (µs, 400 µs clock): p25 400, median 1600,
	// p75 3200, p95 7600, mean 2358, σ 2734.
	ipop, err := profile.Summary(core.TargetInterarrival)
	if err != nil {
		t.Fatal(err)
	}
	if ipop.Min != 0 {
		t.Errorf("iat min = %v, want 0 (sub-clock)", ipop.Min)
	}
	if ipop.P25 > 800 {
		t.Errorf("iat p25 = %v, want ≈400", ipop.P25)
	}
	if ipop.Median < 1200 || ipop.Median > 2000 {
		t.Errorf("iat median = %v, want ≈1600", ipop.Median)
	}
	if ipop.P75 < 2400 || ipop.P75 > 4000 {
		t.Errorf("iat p75 = %v, want ≈3200", ipop.P75)
	}
	if ipop.P95 < 6000 || ipop.P95 > 9600 {
		t.Errorf("iat p95 = %v, want ≈7600", ipop.P95)
	}
	if math.Abs(ipop.Mean-2358) > 250 {
		t.Errorf("iat mean = %v, want ≈2358", ipop.Mean)
	}
	if ipop.StdDev < 2300 || ipop.StdDev > 3400 {
		t.Errorf("iat σ = %v, want ≈2734", ipop.StdDev)
	}

	// Table 2, per-second packet arrivals: mean 424, σ 85, skew ~1,
	// kurtosis ~5 (heavy-tailed, positively skewed).
	rows := tr.PerSecondSeries()
	pps := make([]float64, len(rows))
	for i, r := range rows {
		pps[i] = float64(r.Packets)
	}
	d, err := stats.Describe(pps)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d.Mean-424) > 40 {
		t.Errorf("pps mean = %v, want ≈424", d.Mean)
	}
	if d.StdDev < 55 || d.StdDev > 120 {
		t.Errorf("pps σ = %v, want ≈85", d.StdDev)
	}
	if d.Skewness < 0.2 {
		t.Errorf("pps skew = %v, want positive (paper: 0.96)", d.Skewness)
	}

	// Table 2, byte rate: mean ≈98.6 kB/s.
	bps := make([]float64, len(rows))
	for i, r := range rows {
		bps[i] = float64(r.Bytes)
	}
	bd, err := stats.Describe(bps)
	if err != nil {
		t.Fatal(err)
	}
	if bd.Mean < 80_000 || bd.Mean > 120_000 {
		t.Errorf("bytes/s mean = %v, want ≈98600", bd.Mean)
	}
}

func TestHourCached(t *testing.T) {
	if testing.Short() {
		t.Skip("uses the full-hour trace")
	}
	a, err := Hour()
	if err != nil {
		t.Fatal(err)
	}
	b, err := Hour()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("Hour() did not return the cached trace")
	}
}
