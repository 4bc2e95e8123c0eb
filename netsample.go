// Package netsample is a from-scratch Go reproduction of "Application of
// Sampling Methodologies to Network Traffic Characterization" (Claffy,
// Polyzos & Braun, SIGCOMM 1993): the five packet-sampling methods, the
// χ²-family disparity metrics (cost, relative cost, Paxson's X², the φ
// coefficient), the NSFNET T1/T3 statistics-collection substrate it
// motivates, a calibrated synthetic reconstruction of the paper's
// SDSC→E-NSS packet trace, and a harness that regenerates every table
// and figure of the evaluation.
//
// This root package is the public facade: it re-exports the library's
// primary types and provides convenience constructors, so a downstream
// user writes
//
//	tr, _ := netsample.GenerateHour()
//	ev, _ := netsample.NewSizeEvaluator(tr)
//	idx, _ := netsample.Systematic(50).Select(tr, nil)
//	phi, _ := ev.Phi(idx)
//
// The full surface lives in the internal packages (documented in
// DESIGN.md); everything a typical user needs is reachable from here.
package netsample

import (
	"netsample/internal/bins"
	"netsample/internal/core"
	"netsample/internal/dist"
	"netsample/internal/metrics"
	"netsample/internal/trace"
	"netsample/internal/traffgen"
)

// Re-exported core types. A Sampler selects packet indices from a Trace;
// an Evaluator scores samples against the parent population; Report
// bundles the Section 5.2 disparity metrics.
type (
	// Trace is an ordered packet trace with capture-clock metadata.
	Trace = trace.Trace
	// Packet is one trace record.
	Packet = trace.Packet
	// Sampler is one of the paper's sampling methods.
	Sampler = core.Sampler
	// Evaluator scores samples against a parent population.
	Evaluator = core.Evaluator
	// Report holds χ², significance, cost, rcost, X², k and φ.
	Report = metrics.Report
	// Target selects the assessed distribution (sizes or interarrivals).
	Target = core.Target
	// RNG is the deterministic random source used by random methods.
	RNG = dist.RNG
	// Config parameterizes synthetic trace generation.
	Config = traffgen.Config
)

// The two characterization targets of the study.
const (
	TargetSize         = core.TargetSize
	TargetInterarrival = core.TargetInterarrival
)

// NewRNG returns a deterministic random source for the random methods.
func NewRNG(seed uint64) *RNG { return dist.NewRNG(seed) }

// GenerateHour synthesizes the calibrated one-hour parent population
// (≈1.5 M packets with the paper's Table 2/3 statistics). The result is
// shared and must be treated as read-only; call Generate with a custom
// Config for a private trace.
func GenerateHour() (*Trace, error) { return traffgen.Hour() }

// Generate synthesizes a trace from a custom configuration.
func Generate(cfg Config) (*Trace, error) { return traffgen.Generate(cfg) }

// SmallConfig returns a fast two-minute configuration with the same
// distributional character.
func SmallConfig(seed uint64) Config { return traffgen.SmallTrace(seed) }

// Systematic returns the deterministic every-k-th-packet sampler — the
// method deployed on the NSFNET backbones (k = 50 operationally).
func Systematic(k int) Sampler { return core.SystematicCount{K: k} }

// Stratified returns the one-random-packet-per-bucket-of-k sampler.
func Stratified(k int) Sampler { return core.StratifiedCount{K: k} }

// Random returns the simple random sampler selecting ⌈N/k⌉ packets.
func Random(k int) Sampler { return core.SimpleRandom{K: k} }

// SystematicTimer returns the timer-driven systematic sampler whose
// period approximates granularity k on tr.
func SystematicTimer(tr *Trace, k float64) (Sampler, error) {
	return core.NewSystematicTimer(tr, k, 0)
}

// StratifiedTimer returns the timer-driven stratified sampler whose
// period approximates granularity k on tr.
func StratifiedTimer(tr *Trace, k float64) (Sampler, error) {
	return core.NewStratifiedTimer(tr, k)
}

// NewSizeEvaluator scores packet-size samples with the paper's bins
// (<41, 41–180, >180 bytes).
func NewSizeEvaluator(tr *Trace) (*Evaluator, error) {
	return core.NewEvaluator(tr, core.TargetSize, bins.PacketSize())
}

// NewInterarrivalEvaluator scores interarrival samples with the paper's
// bins (<800, 800–1199, 1200–2399, 2400–3599, ≥3600 µs).
func NewInterarrivalEvaluator(tr *Trace) (*Evaluator, error) {
	return core.NewEvaluator(tr, core.TargetInterarrival, bins.Interarrival())
}

// SampleSizeForMean is Cochran's required simple-random sample size for
// estimating a population mean to ±accuracyPercent at the given
// confidence (Section 5.1).
func SampleSizeForMean(mean, stddev, accuracyPercent, confidence float64) (int, error) {
	return core.SampleSizeForMean(mean, stddev, accuracyPercent, confidence)
}

// Estimate is a point estimate with a confidence interval.
type Estimate = core.Estimate

// EstimateMean estimates a population mean from sample observations at
// the given confidence, with finite population correction for
// populationN (0 = infinite) and Student's t for small samples.
func EstimateMean(sample []float64, populationN int, confidence float64) (Estimate, error) {
	return core.EstimateMean(sample, populationN, confidence)
}

// EstimateProportion estimates the proportion of observations
// satisfying pred.
func EstimateProportion(sample []float64, pred func(float64) bool,
	populationN int, confidence float64) (Estimate, error) {
	return core.EstimateProportion(sample, pred, populationN, confidence)
}

// Observations extracts a sample's target observations (sizes, or
// interarrival gaps against each packet's predecessor in the full
// trace) from selected indices.
func Observations(tr *Trace, target Target, indices []int) []float64 {
	return core.Observations(tr, target, indices)
}
