package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"netsample/internal/dist"
	"netsample/internal/metrics"
	"netsample/internal/packet"
	"netsample/internal/trace"
	"netsample/internal/traffgen"
)

// label is Key then AppendLabel: what a categorizer calls the packet's
// cell.
func label(c Categorizer, p trace.Packet) (string, bool) {
	key, ok := c.Key(p)
	if !ok {
		return "", false
	}
	return string(c.AppendLabel(nil, key)), true
}

func TestPortCategorizer(t *testing.T) {
	var c PortCategorizer
	if _, ok := c.Key(trace.Packet{Protocol: packet.ProtoICMP}); ok {
		t.Error("ICMP should be excluded")
	}
	key, ok := label(c, trace.Packet{Protocol: packet.ProtoTCP, SrcPort: 1024, DstPort: packet.PortTelnet})
	if !ok || key != "telnet" {
		t.Errorf("dst well-known: %q %v", key, ok)
	}
	key, ok = label(c, trace.Packet{Protocol: packet.ProtoTCP, SrcPort: packet.PortNNTP, DstPort: 2044})
	if !ok || key != "nntp" {
		t.Errorf("src well-known: %q %v", key, ok)
	}
	key, ok = label(c, trace.Packet{Protocol: packet.ProtoUDP, SrcPort: 5000, DstPort: 6000})
	if !ok || key != "other" {
		t.Errorf("ephemeral: %q %v", key, ok)
	}
}

// ProtocolCategorizer has no caller outside the tests — every figure
// scores ports or net pairs — and so lives here: a third categorizer to
// drive the kernel with.

// ProtocolCategorizer maps packets to their IP protocol; the key is the
// protocol number.
type ProtocolCategorizer struct{}

// Name implements Categorizer.
func (ProtocolCategorizer) Name() string { return "protocol-distribution" }

// Key implements Categorizer.
func (ProtocolCategorizer) Key(p trace.Packet) (uint64, bool) {
	return uint64(p.Protocol), true
}

// AppendLabel implements Categorizer.
func (ProtocolCategorizer) AppendLabel(dst []byte, key uint64) []byte {
	return append(dst, packet.Protocol(key).String()...)
}

func TestProtocolCategorizer(t *testing.T) {
	var c ProtocolCategorizer
	key, ok := label(c, trace.Packet{Protocol: packet.ProtoTCP})
	if !ok || key != "TCP" {
		t.Errorf("key = %q", key)
	}
	if key, _ := label(c, trace.Packet{Protocol: 200}); key != "proto-200" {
		t.Errorf("unnamed protocol key = %q", key)
	}
}

func TestNetPairCategorizer(t *testing.T) {
	var c NetPairCategorizer
	key, ok := label(c, trace.Packet{
		Src: packet.Addr{132, 249, 5, 5}, Dst: packet.Addr{18, 3, 4, 5}})
	if !ok || key != "132.249.0.0>18.0.0.0" {
		t.Errorf("key = %q", key)
	}
	// The two halves of the packed key do not bleed into each other.
	key, _ = label(c, trace.Packet{
		Src: packet.Addr{255, 255, 255, 255}, Dst: packet.Addr{192, 0, 2, 9}})
	if key != "255.255.255.255>192.0.2.0" {
		t.Errorf("key = %q", key)
	}
}

func TestNewCategoricalEvaluatorValidation(t *testing.T) {
	tr, err := traffgen.Generate(traffgen.SmallTrace(60))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewCategoricalEvaluator(tr, PortCategorizer{}, -0.1); err == nil {
		t.Error("negative minShare accepted")
	}
	if _, err := NewCategoricalEvaluator(tr, PortCategorizer{}, 1); err == nil {
		t.Error("minShare 1 accepted")
	}
	// A population with no categorizable packets.
	icmpOnly := &trace.Trace{Packets: []trace.Packet{
		{Protocol: packet.ProtoICMP}, {Protocol: packet.ProtoICMP},
	}}
	if _, err := NewCategoricalEvaluator(icmpOnly, PortCategorizer{}, 0); !errors.Is(err, ErrNoCategories) {
		t.Errorf("uncategorizable accepted: %v", err)
	}
	// A single-category population folds to < 2 cells.
	oneCat := &trace.Trace{Packets: []trace.Packet{
		{Protocol: packet.ProtoTCP, DstPort: packet.PortTelnet},
		{Protocol: packet.ProtoTCP, DstPort: packet.PortTelnet},
	}}
	if _, err := NewCategoricalEvaluator(oneCat, PortCategorizer{}, 0); !errors.Is(err, ErrNoCategories) {
		t.Errorf("single category accepted: %v", err)
	}
}

func TestCategoricalPhiZeroForFullSample(t *testing.T) {
	tr, err := traffgen.Generate(traffgen.SmallTrace(61))
	if err != nil {
		t.Fatal(err)
	}
	for _, cat := range []Categorizer{PortCategorizer{}, ProtocolCategorizer{}, NetPairCategorizer{}} {
		ev, err := NewCategoricalEvaluator(tr, cat, 0)
		if err != nil {
			t.Fatalf("%s: %v", cat.Name(), err)
		}
		rep, err := ev.Score(rangeInts(tr.Len()))
		if err != nil {
			t.Fatalf("%s: %v", cat.Name(), err)
		}
		if rep.Phi > 1e-12 {
			t.Errorf("%s: full-sample phi = %v", cat.Name(), rep.Phi)
		}
	}
}

func TestCategoricalProportionsSumToOne(t *testing.T) {
	tr, err := traffgen.Generate(traffgen.SmallTrace(62))
	if err != nil {
		t.Fatal(err)
	}
	ev, err := NewCategoricalEvaluator(tr, PortCategorizer{}, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, c := range ev.popCounts {
		sum += c / ev.popTotal
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("proportions sum = %v", sum)
	}
}

func TestCategoricalFolding(t *testing.T) {
	tr, err := traffgen.Generate(traffgen.SmallTrace(63))
	if err != nil {
		t.Fatal(err)
	}
	unfolded, err := NewCategoricalEvaluator(tr, NetPairCategorizer{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	folded, err := NewCategoricalEvaluator(tr, NetPairCategorizer{}, 0.005)
	if err != nil {
		t.Fatal(err)
	}
	if folded.NumCells() >= unfolded.NumCells() {
		t.Fatalf("folding did not reduce cells: %d vs %d", folded.NumCells(), unfolded.NumCells())
	}
	cats := folded.categories
	if cats[len(cats)-1] != RestCategory {
		t.Fatalf("rest category missing: %v", cats[len(cats)-3:])
	}
}

func TestCategoricalMatrixHarderThanPorts(t *testing.T) {
	// The paper's anticipated result: the sparse traffic matrix samples
	// far worse than the coarse port distribution at equal fractions.
	tr, err := traffgen.Generate(traffgen.SmallTrace(64))
	if err != nil {
		t.Fatal(err)
	}
	ports, err := NewCategoricalEvaluator(tr, PortCategorizer{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	matrix, err := NewCategoricalEvaluator(tr, NetPairCategorizer{}, 0.0005)
	if err != nil {
		t.Fatal(err)
	}
	r := dist.NewRNG(3)
	const k = 256
	pReps, err := ReplicateCategorical(ports, StratifiedCount{K: k}, 5, r)
	if err != nil {
		t.Fatal(err)
	}
	mReps, err := ReplicateCategorical(matrix, StratifiedCount{K: k}, 5, r)
	if err != nil {
		t.Fatal(err)
	}
	if !(MeanPhi(mReps) > MeanPhi(pReps)) {
		t.Fatalf("matrix phi %v not worse than ports phi %v",
			MeanPhi(mReps), MeanPhi(pReps))
	}
}

func TestCategoricalScoreEmptySample(t *testing.T) {
	tr, err := traffgen.Generate(traffgen.SmallTrace(65))
	if err != nil {
		t.Fatal(err)
	}
	ev, err := NewCategoricalEvaluator(tr, PortCategorizer{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ev.Score(nil); err == nil {
		t.Error("empty sample accepted")
	}
	// A sample of only uncategorizable packets.
	var icmpIdx []int
	for i, p := range tr.Packets {
		if p.Protocol == packet.ProtoICMP {
			icmpIdx = append(icmpIdx, i)
			if len(icmpIdx) == 10 {
				break
			}
		}
	}
	if len(icmpIdx) > 0 {
		if _, err := ev.Score(icmpIdx); err == nil {
			t.Error("uncategorizable sample accepted")
		}
	}
}

func TestReplicateCategoricalPropagatesError(t *testing.T) {
	tr, err := traffgen.Generate(traffgen.SmallTrace(66))
	if err != nil {
		t.Fatal(err)
	}
	ev, err := NewCategoricalEvaluator(tr, PortCategorizer{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReplicateCategorical(ev, SystematicCount{K: 0}, 2, dist.NewRNG(1)); err == nil {
		t.Error("bad sampler accepted")
	}
}

// refCategory is the deleted string contract — Category(p) — spelled
// independently of Key/Label.
func refCategory(cat Categorizer, p trace.Packet) (string, bool) {
	switch cat.(type) {
	case PortCategorizer:
		if p.Protocol != packet.ProtoTCP && p.Protocol != packet.ProtoUDP {
			return "", false
		}
		if name := packet.PortName(p.DstPort); name != "other" {
			return name, true
		}
		return packet.PortName(p.SrcPort), true
	case ProtocolCategorizer:
		return p.Protocol.String(), true
	}
	s, d := p.Src.NetworkNumber(), p.Dst.NetworkNumber()
	return fmt.Sprintf("%d.%d.%d.%d>%d.%d.%d.%d", s[0], s[1], s[2], s[3], d[0], d[1], d[2], d[3]), true
}

// refEvaluator is the string-keyed implementation the table kernel
// replaced, kept as the reference the kernel is held bit-equal to.
type refEvaluator struct {
	categories []string
	index      map[string]int
	popCounts  []float64
	popTotal   float64
}

func newRefEvaluator(pop *trace.Trace, cat Categorizer, minShare float64) *refEvaluator {
	raw := map[string]float64{}
	e := &refEvaluator{index: map[string]int{}}
	for _, p := range pop.Packets {
		if key, ok := refCategory(cat, p); ok {
			raw[key]++
			e.popTotal++
		}
	}
	var rest float64
	for key, c := range raw {
		if c/e.popTotal < minShare {
			rest += c
		} else {
			e.categories = append(e.categories, key)
		}
	}
	sort.Strings(e.categories)
	if rest > 0 {
		e.categories = append(e.categories, RestCategory)
		raw[RestCategory] = rest
	}
	for i, key := range e.categories {
		e.index[key] = i
		e.popCounts = append(e.popCounts, raw[key])
	}
	return e
}

func (e *refEvaluator) score(pop *trace.Trace, cat Categorizer, indices []int) (metrics.Report, error) {
	observed := make([]float64, len(e.categories))
	expected := make([]float64, len(e.categories))
	scaled := make([]float64, len(e.categories))
	var n float64
	for _, idx := range indices {
		key, ok := refCategory(cat, pop.Packets[idx])
		if !ok {
			continue
		}
		pos, ok := e.index[key]
		if !ok {
			pos = e.index[RestCategory]
		}
		observed[pos]++
		n++
	}
	if n == 0 {
		return metrics.Report{}, errEmptySample
	}
	for i := range observed {
		expected[i] = n * (e.popCounts[i] / e.popTotal)
		scaled[i] = observed[i] * (e.popTotal / n)
	}
	var rep metrics.Report
	var errs [7]error
	rep.ChiSquare, errs[0] = metrics.ChiSquare(observed, expected)
	rep.Significance, errs[1] = metrics.Significance(observed, expected, 0)
	rep.Cost, errs[2] = metrics.Cost(scaled, e.popCounts)
	rep.RelativeCost, errs[3] = metrics.RelativeCost(scaled, e.popCounts, n/e.popTotal)
	rep.PaxsonX2, errs[4] = metrics.PaxsonX2(observed, expected)
	rep.AvgNormDev, errs[5] = metrics.AvgNormDeviation(observed, expected)
	rep.Phi, errs[6] = metrics.Phi(observed, expected)
	if err := errors.Join(errs[:]...); err != nil {
		return metrics.Report{}, err
	}
	return rep, nil
}

// sameBits reports whether two float slices are bit-identical.
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// categoricalPopulations are the two windows the kernel is checked on:
// the hour's first 1024 s (what ExtPorts/ExtMatrix score) and a ddos
// scenario whose spoofed flood is thousands of one-packet pairs.
func categoricalPopulations(t *testing.T) map[string]*trace.Trace {
	t.Helper()
	hour, err := traffgen.Hour()
	if err != nil {
		t.Fatal(err)
	}
	sc, err := traffgen.PresetScenario("ddos", 7, 2*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	ddos, err := traffgen.GenerateScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*trace.Trace{"hour-1024s": hour.Window(0, 1024*1_000_000), "ddos": ddos}
}

// TestCategoricalKernelMatchesStringReference holds the table kernel
// bit-equal to the string-keyed reference: cell order, cell count,
// population proportions and every report field.
func TestCategoricalKernelMatchesStringReference(t *testing.T) {
	for popName, pop := range categoricalPopulations(t) {
		onePacket := map[string]int{}
		for _, p := range pop.Packets {
			key, _ := refCategory(NetPairCategorizer{}, p)
			onePacket[key]++
		}
		singles := 0
		for _, c := range onePacket {
			if c == 1 {
				singles++
			}
		}
		if popName == "ddos" && singles < 1000 {
			t.Fatalf("ddos population has only %d one-packet pairs", singles)
		}
		for _, cat := range []Categorizer{PortCategorizer{}, ProtocolCategorizer{}, NetPairCategorizer{}} {
			for _, minShare := range []float64{0, 0.0005, 0.05} {
				name := fmt.Sprintf("%s/%s/%v", popName, cat.Name(), minShare)
				ref := newRefEvaluator(pop, cat, minShare)
				ev, err := NewCategoricalEvaluator(pop, cat, minShare)
				if len(ref.categories) < 2 {
					if !errors.Is(err, ErrNoCategories) {
						t.Errorf("%s: %d reference cells but err = %v", name, len(ref.categories), err)
					}
					continue
				}
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if !slices.Equal(ev.categories, ref.categories) || ev.NumCells() != len(ref.categories) {
					t.Fatalf("%s: categories differ: %d cells vs %d", name, ev.NumCells(), len(ref.categories))
				}
				if !sameBits(ev.popCounts, ref.popCounts) || ev.popTotal != ref.popTotal {
					t.Fatalf("%s: population counts differ", name)
				}
				r := dist.NewRNG(11)
				for _, s := range []Sampler{SystematicCount{K: 50, Offset: 3}, StratifiedCount{K: 7}, StratifiedCount{K: 1024}, SimpleRandom{K: 300}} {
					idx, err := s.Select(pop, r)
					if err != nil {
						t.Fatal(err)
					}
					got, gotErr := ev.Score(idx)
					want, wantErr := ref.score(pop, cat, idx)
					if (gotErr != nil) != (wantErr != nil) || got != want {
						t.Errorf("%s %s: report %+v (%v), reference %+v (%v)", name, s.Name(), got, gotErr, want, wantErr)
					}
				}
			}
		}
	}
}

// TestReplicateCategoricalMatchesSelectScore pins the streamed
// replication loop to the Select-then-Score composition it replaced:
// same child streams, same sample sizes, same reports.
func TestReplicateCategoricalMatchesSelectScore(t *testing.T) {
	tr := genTrace(t, 67)
	for _, cat := range []Categorizer{PortCategorizer{}, NetPairCategorizer{}} {
		ev, err := NewCategoricalEvaluator(tr, cat, 0.0005)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range []Sampler{StratifiedCount{K: 16}, SimpleRandom{K: 100}, SystematicCount{K: 9}} {
			reps, err := ReplicateCategorical(ev, s, 4, dist.NewRNG(5))
			if err != nil {
				t.Fatal(err)
			}
			r := dist.NewRNG(5)
			for i, rep := range reps {
				idx, err := s.Select(tr, r.Split())
				if err != nil {
					t.Fatal(err)
				}
				want, err := ev.Score(idx)
				if err != nil {
					t.Fatal(err)
				}
				if rep.SampleSize != len(idx) || rep.Report != want {
					t.Errorf("%s %s rep %d: got %d %+v, want %d %+v", cat.Name(), s.Name(), i, rep.SampleSize, rep.Report, len(idx), want)
				}
			}
		}
	}
}

// TestCategoricalExcludedPackets pins the accounting of packets the
// categorizer excludes: they count toward SampleSize (the sampler did
// select them) but toward no cell, so n — and with it every expected
// count — is that of the categorizable packets alone.
func TestCategoricalExcludedPackets(t *testing.T) {
	tr := genTrace(t, 68)
	ev, err := NewCategoricalEvaluator(tr, PortCategorizer{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var icmp, rest []int
	for i, p := range tr.Packets {
		if p.Protocol != packet.ProtoTCP && p.Protocol != packet.ProtoUDP {
			icmp = append(icmp, i)
		} else if i%40 == 0 {
			rest = append(rest, i)
		}
	}
	if len(icmp) == 0 {
		t.Fatal("trace has no non-TCP/UDP packet")
	}
	with := append(append([]int(nil), rest...), icmp...)
	sort.Ints(with)
	got, err := ev.Score(with)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ev.Score(rest)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("excluded packets moved the report: %+v vs %+v", got, want)
	}
	if _, err := ev.Score(icmp); !errors.Is(err, errEmptySample) {
		t.Errorf("all-excluded sample: err = %v", err)
	}
	// Every packet selected, excluded ones included, is in SampleSize.
	reps, err := ReplicateCategorical(ev, SystematicCount{K: 1}, 1, dist.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if reps[0].SampleSize != tr.Len() {
		t.Errorf("SampleSize = %d, want %d", reps[0].SampleSize, tr.Len())
	}
	all, err := ev.Score(rangeInts(tr.Len()))
	if err != nil {
		t.Fatal(err)
	}
	if reps[0].Report != all {
		t.Errorf("census report %+v, Score %+v", reps[0].Report, all)
	}
}

func rangeInts(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// TestCategoricalScoringZeroAllocs pins the table kernel at zero
// steady-state heap allocations: Score once the scorer pool is warm,
// and each further replication of ReplicateCategorical.
func TestCategoricalScoringZeroAllocs(t *testing.T) {
	tr := genTrace(t, 69)
	for _, cat := range []Categorizer{PortCategorizer{}, ProtocolCategorizer{}, NetPairCategorizer{}} {
		ev, err := NewCategoricalEvaluator(tr, cat, 0.0005)
		if err != nil {
			t.Fatal(err)
		}
		idx, err := (SystematicCount{K: 64}).Select(tr, nil)
		if err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(50, func() {
			if _, err := ev.Score(idx); err != nil {
				panic(err)
			}
		}); allocs != 0 {
			t.Errorf("%s: Score: %v allocs/op, want 0", cat.Name(), allocs)
		}
		r := dist.NewRNG(2)
		replicate := func(n int) float64 {
			return testing.AllocsPerRun(20, func() {
				if _, err := ReplicateCategorical(ev, StratifiedCount{K: 64}, n, r); err != nil {
					panic(err)
				}
			})
		}
		if one, many := replicate(1), replicate(33); many != one {
			t.Errorf("%s: ReplicateCategorical allocates per replication: %v allocs for 1, %v for 33", cat.Name(), one, many)
		}
	}
}

// TestCategoricalEvaluatorConcurrentUse scores one evaluator from
// several goroutines at once: the pooled scorers must keep the reports
// equal to the serial ones (and the race detector quiet).
func TestCategoricalEvaluatorConcurrentUse(t *testing.T) {
	tr := genTrace(t, 70)
	ev, err := NewCategoricalEvaluator(tr, NetPairCategorizer{}, 0.0005)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ReplicateCategorical(ev, StratifiedCount{K: 32}, 3, dist.NewRNG(4))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				got, err := ReplicateCategorical(ev, StratifiedCount{K: 32}, 3, dist.NewRNG(4))
				if err != nil || !slices.Equal(got, want) {
					t.Errorf("concurrent replication differs: %v %v", got, err)
				}
			}
		}()
	}
	wg.Wait()
}

// TestAppendLabelSpelling holds NetPairCategorizer's labels to the
// spelling the string-building form gave them — source then
// destination network, each in dotted quads, joined by '>' — on keys
// of every class, the octet widths at their ends included, and on
// seeded random keys.
func TestAppendLabelSpelling(t *testing.T) {
	var c NetPairCategorizer
	for _, tc := range []struct {
		src, dst packet.Addr
		want     string
	}{
		{packet.Addr{18, 26, 0, 1}, packet.Addr{10, 1, 2, 3}, "18.0.0.0>10.0.0.0"},                 // A>A
		{packet.Addr{0, 0, 0, 0}, packet.Addr{127, 255, 255, 255}, "0.0.0.0>127.0.0.0"},            // A ends
		{packet.Addr{132, 249, 20, 1}, packet.Addr{128, 54, 9, 9}, "132.249.0.0>128.54.0.0"},       // B>B
		{packet.Addr{191, 255, 255, 255}, packet.Addr{128, 0, 7, 7}, "191.255.0.0>128.0.0.0"},      // B ends
		{packet.Addr{192, 31, 21, 77}, packet.Addr{223, 255, 254, 1}, "192.31.21.0>223.255.254.0"}, // C>C
		{packet.Addr{224, 0, 0, 9}, packet.Addr{239, 255, 255, 250}, "224.0.0.9>239.255.255.250"},  // D>D, kept whole
		{packet.Addr{255, 255, 255, 255}, packet.Addr{192, 0, 2, 9}, "255.255.255.255>192.0.2.0"},  // E>C
		{packet.Addr{132, 249, 5, 5}, packet.Addr{18, 3, 4, 5}, "132.249.0.0>18.0.0.0"},            // B>A
		{packet.Addr{9, 9, 9, 9}, packet.Addr{225, 1, 2, 3}, "9.0.0.0>225.1.2.3"},                  // A>D
		{packet.Addr{200, 100, 50, 25}, packet.Addr{150, 75, 30, 15}, "200.100.50.0>150.75.0.0"},   // C>B
	} {
		key, ok := c.Key(trace.Packet{Src: tc.src, Dst: tc.dst})
		if !ok {
			t.Fatalf("%v>%v: no key", tc.src, tc.dst)
		}
		if got := string(c.AppendLabel([]byte("prefix:"), key)); got != "prefix:"+tc.want {
			t.Errorf("%v>%v: label %q, want %q", tc.src, tc.dst, got, "prefix:"+tc.want)
		}
	}
	r := dist.NewRNG(11)
	for range 10_000 {
		key := r.Uint64()
		s, d := packet.AddrFrom(uint32(key>>32)), packet.AddrFrom(uint32(key))
		want := fmt.Sprintf("%d.%d.%d.%d>%d.%d.%d.%d", s[0], s[1], s[2], s[3], d[0], d[1], d[2], d[3])
		if got := string(c.AppendLabel(nil, key)); got != want {
			t.Fatalf("key %#x: label %q, want %q", key, got, want)
		}
	}
}

// TestAppendLabelAllocs pins the label form: with room in dst, neither
// categorizer allocates.
func TestAppendLabelAllocs(t *testing.T) {
	buf := make([]byte, 0, 64)
	key := uint64(0xdfff_fe00_e000_0001) // 223.255.254.0>224.0.0.1
	for name, f := range map[string]func(){
		"NetPair.AppendLabel": func() { buf = NetPairCategorizer{}.AppendLabel(buf[:0], key) },
		"Port.AppendLabel":    func() { buf = PortCategorizer{}.AppendLabel(buf[:0], uint64(packet.PortFTPData)) },
	} {
		if allocs := testing.AllocsPerRun(100, f); allocs != 0 {
			t.Errorf("%s allocates %v times with room in dst, want 0", name, allocs)
		}
	}
}

// TestCategoricalLabelsOneString pins the evaluator's labels: it
// appends the kept ones to one buffer that becomes one string, and each
// category is a slice of it, so sixteen times the kept categories adds
// only the growth of the label buffer, the key map and the count slice
// (25 measured), where a string per label cost three allocations a
// category (NetPairCategorizer's two addresses and the join): 2910
// more.
func TestCategoricalLabelsOneString(t *testing.T) {
	build := func(pairs int) (float64, *CategoricalEvaluator) {
		pop := &trace.Trace{}
		for i := range 2 * pairs {
			j := i % pairs // class B nets 128.100 on, so every label has 21 bytes
			src := packet.Addr{byte(128 + j/100), byte(100 + j%100), 0, 0}
			pop.Packets = append(pop.Packets, trace.Packet{Time: int64(i), Src: src, Dst: packet.Addr{18, 0, 0, 1}})
		}
		var ev *CategoricalEvaluator
		allocs := testing.AllocsPerRun(5, func() {
			var err error
			if ev, err = NewCategoricalEvaluator(pop, NetPairCategorizer{}, 0); err != nil {
				t.Fatal(err)
			}
		})
		return allocs, ev
	}
	small, _ := build(64)
	large, ev := build(1024)
	if ev.NumCells() != 1024 {
		t.Fatalf("%d cells, want 1024", ev.NumCells())
	}
	if grown := large - small; grown > 32 {
		t.Errorf("1024 categories allocate %.0f times, 64 %.0f: %.0f more, want at most 32", large, small, grown)
	}
}
