package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call from the harness into a layer. Times are
// nanoseconds since the tracer's epoch; Parent is the ID of the span
// that caused this one (-1 for a root); Lap ties the spans of one lap
// together (-1 for the stage replay).
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Lap    int32  `json:"lap"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans in memory and writes them out once, at the end
// of the run. A nil *tracer is tracing off: begin returns noSpan and
// end does nothing, so call sites need no branches of their own and an
// untraced run pays only the nil checks.
//
// Spans arrive from two goroutines (the one that calls Run, and the
// pipeline's snapshot collector calling OnSnapshot), so the slice is
// mutex-guarded; the lock is held only for the append.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

const noSpan int32 = -1

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

// begin opens a span and returns its ID.
func (t *tracer) begin(name string, parent int32, lap int) int32 {
	if t == nil {
		return noSpan
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	id := int32(len(t.spans))
	//nslint:allow hotalloc traced laps only: the buffer starts at 64k spans, and what growth costs is inside the tracing overhead the run reports
	t.spans = append(t.spans, span{ID: id, Parent: parent, Lap: int32(lap), Name: name, Start: now})
	t.mu.Unlock()
	return id
}

// end closes span id.
func (t *tracer) end(id int32) {
	if t == nil || id == noSpan {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes derives, for every span, its duration minus the part of
// its interval its direct children cover. Children on different
// goroutines may overlap each other (a source read and an OnSnapshot
// callback both sit under pipeline.Run), so coverage is the union of
// the child intervals clipped to the parent, not their sum.
func selfTimes(spans []span) []int64 {
	children := make(map[int32][]int32)
	for _, s := range spans {
		if s.Parent != noSpan {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		var covered int64
		cursor := s.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < cursor {
				lo = cursor
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		self[i] = (s.End - s.Start) - covered
	}
	return self
}

// spanTotals sums total and self time per span name.
type spanTotal struct {
	Name    string `json:"name"`
	Count   int    `json:"count"`
	TotalNS int64  `json:"total_ns"`
	SelfNS  int64  `json:"self_ns"`
}

func spanTotals(spans []span) []spanTotal {
	self := selfTimes(spans)
	byName := make(map[string]*spanTotal)
	var order []string
	for i, s := range spans {
		t, ok := byName[s.Name]
		if !ok {
			t = &spanTotal{Name: s.Name}
			byName[s.Name] = t
			order = append(order, s.Name)
		}
		t.Count++
		t.TotalNS += s.End - s.Start
		t.SelfNS += self[i]
	}
	out := make([]spanTotal, 0, len(order))
	for _, n := range order {
		out = append(out, *byName[n])
	}
	return out
}

// spanFile is the on-disk form of a traced run's spans.
type spanFile struct {
	Harness  string      `json:"harness"`
	Workload string      `json:"workload"`
	Totals   []spanTotal `json:"totals"`
	Spans    []span      `json:"spans"`
}

// writeSpans writes the run's spans, with their per-name self-time
// totals up front, to path.
func writeSpans(path, workload string, spans []span) error {
	data, err := json.Marshal(spanFile{
		Harness: harnessVersion, Workload: workload,
		Totals: spanTotals(spans), Spans: spans,
	})
	if err != nil {
		return fmt.Errorf("encode spans: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
