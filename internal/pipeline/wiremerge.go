package pipeline

import (
	"errors"
	"fmt"

	"netsample/internal/collect"
	"netsample/internal/nnstat"
)

// ErrMergeWire reports wire snapshots that cannot be merged into one
// aggregate view (no inputs, or histogram schemes that disagree).
var ErrMergeWire = errors.New("pipeline: wire snapshots not mergeable")

// MergeWire folds wire snapshots into one aggregate view with the same
// exact-merge semantics merge applies to shard parts: counters and
// per-bin histogram counts sum, flow totals sum, and heavy hitters are
// re-ranked by (count desc, key asc). It is the on-disk query path's
// merge kernel — internal/store replays a time range of persisted
// snapshots and cmd/nocquery folds them through here.
//
// One semantic differs from the shard merge by necessity: shard top-K
// lists concatenate because flow-hash sharding keeps their keys
// disjoint, but across windows (or across nodes) the same flow key
// recurs, so MergeWire sums counts and error bounds key-wise before
// ranking. Counts are window-local, so the sum is the flow's total over
// the merged range; MaxError bounds likewise add.
//
// The merged window spans [min start, max end); Seq carries the highest
// input sequence, Final is set when any input is final, and Node is
// kept only when every input agrees (else "merged"). Reports are not
// carried over: φ-family scores do not merge — rescore the merged
// counts against a reference evaluator, or read the per-window reports
// individually.
func MergeWire(snaps []*collect.Snapshot, topk int) (*collect.Snapshot, error) {
	if len(snaps) == 0 {
		return nil, fmt.Errorf("%w: no snapshots", ErrMergeWire)
	}
	if topk <= 0 {
		topk = DefaultTopKReport
	}
	first := snaps[0]
	out := &collect.Snapshot{
		Node:          first.Node,
		WindowStartUS: first.WindowStartUS,
		WindowEndUS:   first.WindowEndUS,
		Shards:        first.Shards,
		SizeCounts:    make([]uint64, len(first.SizeCounts)),
		IatCounts:     make([]uint64, len(first.IatCounts)),
		TopK:          []nnstat.Entry{}, // empty, never nil, with no heavy hitters
	}
	byKey := make(map[string]int32) // key → index into out.TopK
	for _, s := range snaps {
		if len(s.SizeCounts) != len(out.SizeCounts) || len(s.IatCounts) != len(out.IatCounts) {
			return nil, fmt.Errorf("%w: histogram bins %d/%d vs %d/%d",
				ErrMergeWire, len(s.SizeCounts), len(s.IatCounts),
				len(out.SizeCounts), len(out.IatCounts))
		}
		if s.Node != out.Node {
			out.Node = "merged"
		}
		if s.Seq > out.Seq {
			out.Seq = s.Seq
		}
		if s.WindowStartUS < out.WindowStartUS {
			out.WindowStartUS = s.WindowStartUS
		}
		if s.WindowEndUS > out.WindowEndUS {
			out.WindowEndUS = s.WindowEndUS
		}
		out.Final = out.Final || s.Final
		if s.Shards > out.Shards {
			out.Shards = s.Shards
		}
		out.Offered += s.Offered
		out.Processed += s.Processed
		out.Selected += s.Selected
		out.Dropped += s.Dropped
		for b, c := range s.SizeCounts {
			out.SizeCounts[b] += c
		}
		for b, c := range s.IatCounts {
			out.IatCounts[b] += c
		}
		out.FlowCounts.Flows += s.FlowCounts.Flows
		out.FlowCounts.Packets += s.FlowCounts.Packets
		out.FlowCounts.Bytes += s.FlowCounts.Bytes
		out.FlowCounts.Singletons += s.FlowCounts.Singletons
		out.ActiveFlows += s.ActiveFlows
		for _, e := range s.TopK {
			if i, ok := byKey[e.Key]; ok {
				out.TopK[i].Count += e.Count
				out.TopK[i].MaxError += e.MaxError
			} else {
				byKey[e.Key] = int32(len(out.TopK))
				out.TopK = append(out.TopK, e)
			}
		}
	}
	rankEntries(out.TopK)
	if len(out.TopK) > topk {
		out.TopK = out.TopK[:topk]
	}
	return out, nil
}
