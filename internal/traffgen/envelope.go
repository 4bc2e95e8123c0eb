package traffgen

import (
	"fmt"
	"math"

	"netsample/internal/dist"
)

// EnvelopeConfig describes the slowly-varying intensity process that
// makes the synthetic traffic non-stationary, as real backbone traffic
// is (the paper: "the processes are not time-homogeneous"). The envelope
// is a lognormal AR(1) process sampled once per EpochSeconds, optionally
// with a deterministic linear trend across the trace.
type EnvelopeConfig struct {
	// Sigma is the standard deviation of the log-intensity. Zero yields
	// a flat (stationary) envelope.
	Sigma float64
	// Rho is the AR(1) correlation between consecutive epochs, in
	// [0, 1). Higher values give slower load swings.
	Rho float64
	// EpochSeconds is the envelope sampling period; zero defaults to 30 s.
	EpochSeconds int
	// TrendPerHour adds a deterministic linear drift to the intensity:
	// +0.2 means offered load rises 20% across the trace, the "linear
	// trend" population of Section 5's stratified-vs-systematic theory.
	TrendPerHour float64
}

// envelope holds the realized per-epoch relative intensities (normalized
// to mean 1), as the weights of the table flow start times are drawn
// from. It is read-only once made, so concurrent model runs share one.
type envelope struct {
	epochUS int64
	epochs  cumWeights
}

// newEnvelope realizes the intensity process for a trace of durUS
// microseconds from r. It fails when the normalized weights are not all
// finite and positive: a finite but large Sigma over- or underflows exp,
// and every flow start would then come from epoch 0.
func newEnvelope(cfg EnvelopeConfig, r *dist.RNG, durUS int64) (*envelope, error) {
	epoch := cfg.EpochSeconds
	if epoch <= 0 {
		epoch = 30
	}
	e := &envelope{epochUS: int64(epoch) * 1e6}
	n := int((durUS + e.epochUS - 1) / e.epochUS)
	if n < 1 {
		n = 1
	}
	// The weights are written into the table, which accumulates them in
	// place once they are normalized.
	e.epochs = makeCumWeights(n)
	w := e.epochs.cum
	sigma := cfg.Sigma
	rho := cfg.Rho
	if rho < 0 {
		rho = 0
	}
	if rho >= 1 {
		rho = 0.999
	}
	// AR(1) in log space with stationary standard deviation sigma.
	innov := sigma * math.Sqrt(1-rho*rho)
	x := sigma * r.NormFloat64()
	var sum float64
	for i := 0; i < n; i++ {
		if i > 0 {
			x = rho*x + innov*r.NormFloat64()
		}
		trend := 1 + cfg.TrendPerHour*(float64(i)/float64(n)-0.5)
		if trend < 0.05 {
			trend = 0.05
		}
		w[i] = math.Exp(x-sigma*sigma/2) * trend
		sum += w[i]
	}
	// Normalize to mean exactly 1 so TargetPPS is preserved.
	mean := sum / float64(n)
	for i := range w {
		w[i] /= mean
		// Written so that a NaN weight fails it.
		if !(w[i] > 0 && w[i] <= math.MaxFloat64) {
			return nil, fmt.Errorf("weight %v in epoch %d of %d is not finite and positive (Sigma %v)", w[i], i, n, sigma)
		}
	}
	e.epochs.accumulate()
	return e, nil
}

// sampleStart draws a flow start time in [0, durUS) with probability
// proportional to the envelope intensity; durUS is the duration the
// envelope was made for.
func (e *envelope) sampleStart(r *dist.RNG, durUS int64) int64 {
	if len(e.epochs.cum) == 1 {
		return r.Int64N(durUS)
	}
	start := int64(e.epochs.draw(r)) * e.epochUS
	span := e.epochUS
	if start+span > durUS {
		span = durUS - start
	}
	if span <= 0 { // defensive: final epoch clipped to nothing
		return durUS - 1
	}
	return start + r.Int64N(span)
}
