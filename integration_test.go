package netsample

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"

	"netsample/internal/bins"
	"netsample/internal/core"
	"netsample/internal/dist"
	"netsample/internal/online"
	"netsample/internal/trace"
	"netsample/internal/traffgen"
)

// These integration tests exercise the whole pipeline across module
// boundaries: generation → file formats → (streaming) sampling →
// scoring → estimation, the way the CLI tools compose the pieces.

func TestPipelineGenerateFileSampleScore(t *testing.T) {
	// 1. Generate and persist.
	tr, err := traffgen.Generate(traffgen.SmallTrace(1001))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.nstr")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.Write(f, tr); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// 2. Re-read and verify integrity.
	g, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := trace.Read(g)
	g.Close()
	if err != nil {
		t.Fatal(err)
	}
	if err := loaded.Validate(); err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != tr.Len() {
		t.Fatalf("round trip lost packets: %d vs %d", loaded.Len(), tr.Len())
	}

	// 3. Sample the loaded trace and score against its own population.
	ev, err := core.NewEvaluator(loaded, core.TargetSize, bins.PacketSize())
	if err != nil {
		t.Fatal(err)
	}
	idx, err := core.SystematicCount{K: 50}.Select(loaded, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ev.Score(idx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Phi > 0.1 {
		t.Fatalf("1-in-50 phi = %v on round-tripped trace", rep.Phi)
	}

	// 4. Estimate the mean packet size from the sample; the interval
	// must cover the truth at this fraction.
	obs := core.Observations(loaded, core.TargetSize, idx)
	est, err := core.EstimateMean(obs, loaded.Len(), 0.999)
	if err != nil {
		t.Fatal(err)
	}
	var truth float64
	for _, s := range loaded.Sizes() {
		truth += s
	}
	truth /= float64(loaded.Len())
	if !est.Contains(truth) {
		t.Fatalf("99.9%% interval [%v, %v] misses true mean %v", est.Low, est.High, truth)
	}
}

func TestPipelinePcapInterop(t *testing.T) {
	// NSTR → pcap → NSTR preserves the sampling study's results.
	tr, err := traffgen.Generate(traffgen.SmallTrace(1003))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.WritePcap(&buf, tr); err != nil {
		t.Fatal(err)
	}
	back, err := trace.ReadPcap(&buf)
	if err != nil {
		t.Fatal(err)
	}
	evA, err := core.NewEvaluator(tr, core.TargetSize, bins.PacketSize())
	if err != nil {
		t.Fatal(err)
	}
	evB, err := core.NewEvaluator(back, core.TargetSize, bins.PacketSize())
	if err != nil {
		t.Fatal(err)
	}
	idxA, err := core.SystematicCount{K: 128}.Select(tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	idxB, err := core.SystematicCount{K: 128}.Select(back, nil)
	if err != nil {
		t.Fatal(err)
	}
	phiA, err := evA.Phi(idxA)
	if err != nil {
		t.Fatal(err)
	}
	phiB, err := evB.Phi(idxB)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(phiA-phiB) > 1e-12 {
		t.Fatalf("phi drifted across pcap round trip: %v vs %v", phiA, phiB)
	}
}

func TestPipelineReservoirApproximatesSimpleRandom(t *testing.T) {
	// The streaming reservoir and the batch simple-random sampler must
	// agree statistically: similar φ at the same sample size.
	tr, err := traffgen.Generate(traffgen.SmallTrace(1004))
	if err != nil {
		t.Fatal(err)
	}
	ev, err := core.NewEvaluator(tr, core.TargetSize, bins.PacketSize())
	if err != nil {
		t.Fatal(err)
	}
	r := dist.NewRNG(42)
	const k = 200
	capacity := (tr.Len() + k - 1) / k

	var phiRes, phiSRS float64
	const runs = 10
	for i := 0; i < runs; i++ {
		res, err := online.NewReservoir(capacity, r.Split())
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range tr.Packets {
			res.Add(p)
		}
		// Score the reservoir sample by size proportions directly.
		sizes := make([]float64, 0, capacity)
		for _, p := range res.Sample() {
			sizes = append(sizes, float64(p.Size))
		}
		phi, err := scoreSizes(ev, sizes)
		if err != nil {
			t.Fatal(err)
		}
		phiRes += phi

		idx, err := core.SimpleRandom{K: k}.Select(tr, r.Split())
		if err != nil {
			t.Fatal(err)
		}
		phi2, err := ev.Phi(idx)
		if err != nil {
			t.Fatal(err)
		}
		phiSRS += phi2
	}
	phiRes /= runs
	phiSRS /= runs
	// Same statistical behavior: mean phi within 2x of each other.
	if phiRes > 2.5*phiSRS+0.01 || phiSRS > 2.5*phiRes+0.01 {
		t.Fatalf("reservoir phi %v vs simple-random phi %v", phiRes, phiSRS)
	}
}

// scoreSizes scores raw size observations against the evaluator's
// population using the same chi-square orientation as Evaluator.Score.
func scoreSizes(ev *core.Evaluator, sizes []float64) (float64, error) {
	scheme := bins.PacketSize()
	counts := make([]int64, scheme.NumBins())
	for _, x := range sizes {
		counts[scheme.Index(x)]++
	}
	observed := make([]float64, len(counts))
	expected := make([]float64, len(counts))
	props := ev.PopulationProportions()
	n := float64(len(sizes))
	for i, c := range counts {
		observed[i] = float64(c)
		expected[i] = n * props[i]
	}
	return phiOf(observed, expected)
}

func phiOf(observed, expected []float64) (float64, error) {
	var chi2, total float64
	for i := range observed {
		d := observed[i] - expected[i]
		chi2 += d * d / expected[i]
		total += observed[i] + expected[i]
	}
	return math.Sqrt(chi2 / total), nil
}
