package main

import (
	"bytes"
	"fmt"

	"netsample/internal/bins"
	"netsample/internal/trace"
)

// reference is what a serial pass over the trace says a fixed-k
// systematic run must have counted.
type reference struct {
	Offered    uint64
	Selected   uint64
	SizeCounts []uint64
}

// serialReference is the harness's own model of fixed systematic
// sampling: walk the packets in order, select every k-th starting with
// the first, bin each selected packet's size. It shares no code with
// the pipeline beyond the bin edges. With k=1 it is "all packets",
// which is also what per-shard k=1 samplers select on any shard count.
func serialReference(tr *trace.Trace, k int) reference {
	scheme := bins.PacketSize()
	ref := reference{SizeCounts: make([]uint64, scheme.NumBins())}
	for i, p := range tr.Packets {
		ref.Offered++
		if i%k == 0 {
			ref.Selected++
			ref.SizeCounts[scheme.Index(float64(p.Size))]++
		}
	}
	return ref
}

// checkConservation applies the per-window accounting invariants every
// lap must hold under the Block policy, returning the number of failed
// operations (each window is one operation) and what failed.
func checkConservation(res *lapResult, pkts int) (failed int, why []string) {
	var offered uint64
	for _, wi := range res.Windows {
		offered += wi.Offered
		switch {
		case wi.Dropped != 0:
			failed++
			why = append(why, fmt.Sprintf("window %d: dropped %d packets under Block", wi.Seq, wi.Dropped))
		case wi.Offered != wi.Processed+wi.Dropped:
			failed++
			why = append(why, fmt.Sprintf("window %d: offered %d != processed %d + dropped %d",
				wi.Seq, wi.Offered, wi.Processed, wi.Dropped))
		}
	}
	if offered != uint64(pkts) {
		failed++
		why = append(why, fmt.Sprintf("windows offered %d packets, trace holds %d", offered, pkts))
	}
	return failed, why
}

// checkVerifiedLap is the full check of lap 0: conservation, cold
// replay byte-equal to the live export, and the merged query answer
// against the serial reference (or, under adaptive control, every
// window's k inside its bounds and one decision per non-final window).
func checkVerifiedLap(w workload, in *input, res *lapResult) (failed int, why []string) {
	failed, why = checkConservation(res, in.ref.Len())
	fail := func(format string, args ...any) {
		failed++
		why = append(why, fmt.Sprintf(format, args...))
	}
	for _, f := range res.Failures {
		fail("%s", f)
	}

	// Cold replay: every stored payload is the live wire payload.
	if len(res.Replayed) != len(res.Live) {
		fail("store replays %d records, %d windows were exported live", len(res.Replayed), len(res.Live))
	}
	for i := 0; i < len(res.Replayed) && i < len(res.Live); i++ {
		if !bytes.Equal(res.Replayed[i], res.Live[i]) {
			fail("record %d: stored payload differs from the live export", i)
		}
	}

	if res.Merged == nil {
		fail("cold query returned no answer")
		return failed, why
	}
	if w.Adaptive != nil {
		nonFinal := 0
		for _, wi := range res.Windows {
			if wi.K < w.Adaptive.MinK || wi.K > w.Adaptive.MaxK {
				fail("window %d: k=%d outside [%d, %d]", wi.Seq, wi.K, w.Adaptive.MinK, w.Adaptive.MaxK)
			}
			if !wi.Final {
				nonFinal++
			}
		}
		// The final barrier closes the run; no decision governs a next
		// window, so none is recorded for it.
		if len(res.Decisions) != nonFinal {
			fail("%d adaptive decisions for %d non-final windows", len(res.Decisions), nonFinal)
		}
		if res.Merged.Offered != uint64(in.ref.Len()) {
			fail("merged offered %d, trace holds %d", res.Merged.Offered, in.ref.Len())
		}
		return failed, why
	}
	ref := serialReference(in.ref, w.K)
	if res.Merged.Offered != ref.Offered || res.Merged.Selected != ref.Selected {
		fail("merged offered/selected %d/%d, serial reference %d/%d",
			res.Merged.Offered, res.Merged.Selected, ref.Offered, ref.Selected)
	}
	if len(res.Merged.SizeCounts) != len(ref.SizeCounts) {
		fail("merged size histogram has %d bins, reference %d", len(res.Merged.SizeCounts), len(ref.SizeCounts))
	} else {
		for b := range ref.SizeCounts {
			if res.Merged.SizeCounts[b] != ref.SizeCounts[b] {
				fail("size bin %d: merged %d, serial reference %d", b, res.Merged.SizeCounts[b], ref.SizeCounts[b])
			}
		}
	}
	return failed, why
}

// checkMeasuredLap is the cheap check every measured lap gets:
// conservation, the same window count as the verified lap, and a
// replay digest equal to the verified lap's — same seed, same bits.
func checkMeasuredLap(in *input, verified, res *lapResult) (failed int, why []string) {
	failed, why = checkConservation(res, in.ref.Len())
	for _, f := range res.Failures {
		failed++
		why = append(why, f)
	}
	if len(res.Windows) != len(verified.Windows) {
		failed++
		why = append(why, fmt.Sprintf("%d windows, verified lap cut %d", len(res.Windows), len(verified.Windows)))
	}
	if res.Digest != verified.Digest {
		failed++
		why = append(why, "replayed payload digest differs from the verified lap's")
	}
	return failed, why
}
