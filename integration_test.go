package netsample

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"

	"netsample/internal/bins"
	"netsample/internal/core"
	"netsample/internal/trace"
	"netsample/internal/traffgen"
)

// These integration tests exercise the whole pipeline across module
// boundaries: generation → file formats → (streaming) sampling →
// scoring → estimation, the way the CLI tools compose the pieces.

// readTrace reads the NSTR file at path whole and decodes it, as the
// CLIs do.
func readTrace(t testing.TB, path string) *trace.Trace {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	m, err := trace.NewMapReaderBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := m.Trace()
	if err != nil {
		t.Fatalf("read trace: %v", err)
	}
	return tr
}

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
	loaded := readTrace(t, path)
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
