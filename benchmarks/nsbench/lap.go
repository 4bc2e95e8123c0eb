package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"

	"netsample/internal/collect"
	"netsample/internal/pipeline"
	"netsample/internal/store"
	"netsample/internal/trace"
)

// tapSource is the harness's pipeline source: the mapped trace replayed
// at full speed, with the wall time of every hand-out noted so window
// cut latency can be measured from outside. It satisfies
// pipeline.RawBatchSource, so Run takes the zero-copy raw path exactly
// as it does for nsd -in. One source goroutine (Run's caller), closed
// loop: under the Block policy back-pressure paces the reads.
type tapSource struct {
	mr     *trace.MapReader
	tr     *tracer
	parent int32
	lap    int
	t0     time.Time

	// Per handed-out batch: the timestamp of its last record, and the
	// wall time (ns since t0) at which NextRawBatch returned it.
	lastUS []int64
	handNS []int64
}

func (s *tapSource) Next() (trace.Packet, error) { return s.mr.Next() }

func (s *tapSource) NextRawBatch(max int) ([]byte, int, error) {
	id := s.tr.begin("source.NextRawBatch", s.parent, s.lap)
	raw, n, err := s.mr.NextRawBatch(max)
	s.tr.end(id)
	if n > 0 {
		last := raw[(n-1)*trace.RecordLen:]
		//nslint:allow hotalloc capacity pinned: made with one slot per batch of the trace, re-sliced to zero each lap, never regrown
		s.lastUS = append(s.lastUS, int64(binary.LittleEndian.Uint64(last)))
		//nslint:allow hotalloc capacity pinned: same sizing as lastUS
		s.handNS = append(s.handNS, time.Since(s.t0).Nanoseconds())
	}
	return raw, n, err
}

// windowInfo is what the harness keeps of one cut window.
type windowInfo struct {
	Seq         uint64
	WindowEndUS int64
	Final       bool
	Offered     uint64
	Processed   uint64
	Selected    uint64
	Dropped     uint64
	K           int
	// DoneNS is the wall time (ns since Run start) at which
	// AppendSnapshot returned for this window.
	DoneNS int64
}

// lapResult is one complete session: trace file to fsynced, queried
// windows.
type lapResult struct {
	RunNS   int64 // Run start to Writer.Close returning
	QueryNS int64 // Verify + OpenReader + Snapshots + MergeWire
	Windows []windowInfo
	// CutNS holds one latency per non-final window (see matchCuts).
	CutNS     []int64
	Decisions []pipeline.AdaptiveDecision
	Merged    *collect.Snapshot
	// Digest is the SHA-256 over the replayed record payloads, in
	// order; Replayed and Live are kept only for the verified lap.
	Digest   [32]byte
	Replayed [][]byte
	Live     [][]byte
	// Heap allocations and GC cycles from Run start to Close returning.
	Mallocs  uint64
	GCCycles uint32
	// Failures lists errors the program under test returned during the
	// lap (Run, AppendSnapshot, Close, the query calls).
	Failures []string
}

// streamEnv is what every lap of a run shares.
type streamEnv struct {
	w   workload
	in  *input
	tmp string
	src *tapSource
	// afterClose, when set, runs on the store directory between
	// Writer.Close and the cold query — the seam the self-tests use to
	// damage a stored byte and watch the checker notice.
	afterClose func(dir string)
}

func newStreamEnv(w workload, in *input, tmp string) *streamEnv {
	batches := in.ref.Len()/pipeline.DefaultBatchSize + 2
	return &streamEnv{w: w, in: in, tmp: tmp, src: &tapSource{
		mr:     in.mr,
		lastUS: make([]int64, 0, batches),
		handNS: make([]int64, 0, batches),
	}}
}

// runLap runs one lap: fresh store on a fresh temp dir, fresh pipeline,
// Run over the whole trace with every window appended as nsd -store
// does, Close (fsynced), then the cold query nocquery -verify performs.
// capture keeps the live-encoded and replayed payloads for the verified
// lap. The returned error is non-nil only for harness failures;
// failures of the program under test land in lapResult.Failures.
func (e *streamEnv) runLap(tr *tracer, lap int, capture bool) (*lapResult, error) {
	dir, err := os.MkdirTemp(e.tmp, "store-")
	if err != nil {
		return nil, harnessErr("store temp dir", err)
	}
	defer os.RemoveAll(dir)
	sw, err := store.Open(dir, store.Options{})
	if err != nil {
		return nil, harnessErr("open store", err)
	}

	res := &lapResult{}
	src := e.src
	src.mr.Rewind()
	src.tr, src.lap = tr, lap
	src.lastUS, src.handNS = src.lastUS[:0], src.handNS[:0]

	var runSpan int32
	cfg := e.w.pipelineConfig(e.in, true)
	cfg.OnSnapshot = func(s *pipeline.Snapshot) {
		sid := tr.begin("OnSnapshot", runSpan, lap)
		wid := tr.begin("Snapshot.Wire", sid, lap)
		wire := s.Wire(nodeName)
		tr.end(wid)
		if capture {
			payload, err := collect.EncodeSnapshot(wire)
			if err != nil {
				res.Failures = append(res.Failures, fmt.Sprintf("window %d: encode: %v", s.Seq, err))
			}
			res.Live = append(res.Live, payload)
		}
		aid := tr.begin("store.AppendSnapshot", sid, lap)
		err := sw.AppendSnapshot(wire)
		tr.end(aid)
		done := time.Since(src.t0).Nanoseconds()
		if err != nil {
			res.Failures = append(res.Failures, fmt.Sprintf("window %d: append: %v", s.Seq, err))
		}
		res.Windows = append(res.Windows, windowInfo{
			Seq: s.Seq, WindowEndUS: s.WindowEndUS, Final: s.Final,
			Offered: s.Offered, Processed: s.Processed, Selected: s.Selected,
			Dropped: s.Dropped, K: s.K, DoneNS: done,
		})
		tr.end(sid)
	}
	p, err := pipeline.New(cfg)
	if err != nil {
		return nil, harnessErr("pipeline.New", err)
	}

	// The two MemStats reads stop the world, but outside the timed
	// interval; allocation counts repeat to four digits where times on
	// this machine repeat to one.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	lapSpan := tr.begin("lap", noSpan, lap)
	src.t0 = time.Now()
	runSpan = tr.begin("pipeline.Run", lapSpan, lap)
	src.parent = runSpan
	runErr := p.Run(src)
	tr.end(runSpan)
	cid := tr.begin("store.Close", lapSpan, lap)
	closeErr := sw.Close()
	tr.end(cid)
	res.RunNS = time.Since(src.t0).Nanoseconds()
	runtime.ReadMemStats(&after)
	res.Mallocs = after.Mallocs - before.Mallocs
	res.GCCycles = after.NumGC - before.NumGC
	if runErr != nil {
		res.Failures = append(res.Failures, fmt.Sprintf("run: %v", runErr))
	}
	if closeErr != nil {
		res.Failures = append(res.Failures, fmt.Sprintf("store close: %v", closeErr))
	}
	res.Decisions = p.Decisions()
	if e.afterClose != nil {
		e.afterClose(dir)
	}

	qid := tr.begin("query", lapSpan, lap)
	tq := time.Now()
	merged, qerr := coldQuery(tr, qid, lap, dir)
	res.QueryNS = time.Since(tq).Nanoseconds()
	tr.end(qid)
	tr.end(lapSpan)
	if qerr != nil {
		res.Failures = append(res.Failures, fmt.Sprintf("query: %v", qerr))
	}
	res.Merged = merged

	ends := make([]int64, 0, len(res.Windows))
	for _, wi := range res.Windows {
		if !wi.Final {
			ends = append(ends, wi.WindowEndUS)
		}
	}
	batchOf := matchCuts(src.lastUS, ends)
	j := 0
	for _, wi := range res.Windows {
		if wi.Final {
			continue
		}
		if b := batchOf[j]; b >= 0 {
			res.CutNS = append(res.CutNS, wi.DoneNS-src.handNS[b])
		}
		j++
	}

	// Untimed: replay the stored payloads for the bit-identity checks.
	if err := replayDigest(dir, res, capture); err != nil {
		res.Failures = append(res.Failures, fmt.Sprintf("replay: %v", err))
	}
	return res, nil
}

// coldQuery is the query a NOC runs against a store nobody has open:
// verify the whole Merkle chain, open a reader, decode every snapshot,
// fold them through the exact-merge kernel — nocquery -verify.
func coldQuery(tr *tracer, parent int32, lap int, dir string) (*collect.Snapshot, error) {
	id := tr.begin("store.Verify", parent, lap)
	err := store.Verify(dir)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin("store.OpenReader", parent, lap)
	r, err := store.OpenReader(dir)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin("Reader.Snapshots", parent, lap)
	snaps, err := r.Snapshots(math.MinInt64, math.MaxInt64)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin("pipeline.MergeWire", parent, lap)
	merged, err := pipeline.MergeWire(snaps, pipeline.DefaultTopKReport)
	tr.end(id)
	return merged, err
}

// replayDigest replays every stored record, hashing the payloads in
// order into res.Digest; with keep it also copies them out.
func replayDigest(dir string, res *lapResult, keep bool) error {
	r, err := store.OpenReader(dir)
	if err != nil {
		return err
	}
	h := sha256.New()
	var lenBuf [8]byte
	err = r.Replay(func(rec store.Record) error {
		binary.LittleEndian.PutUint64(lenBuf[:], uint64(len(rec.Payload)))
		h.Write(lenBuf[:])
		h.Write(rec.Payload)
		if keep {
			res.Replayed = append(res.Replayed, append([]byte(nil), rec.Payload...))
		}
		return nil
	})
	h.Sum(res.Digest[:0])
	return err
}

// matchCuts assigns each non-final window the hand-out batch that
// completed it: the first batch whose last record's timestamp is at or
// past the window's end. The pipeline cuts a window when it sees a
// packet at or past the boundary, and that packet arrived in exactly
// this batch, so the batch's hand-out time is when the last input the
// window depends on left the source. batchLastUS must be
// non-decreasing (a trace is time-ordered). The result holds one batch
// index per window end, -1 where no batch reaches the boundary — which
// never happens for a window the pipeline actually cut.
func matchCuts(batchLastUS, windowEndUS []int64) []int {
	out := make([]int, len(windowEndUS))
	for i, end := range windowEndUS {
		b := sort.Search(len(batchLastUS), func(j int) bool { return batchLastUS[j] >= end })
		if b == len(batchLastUS) {
			b = -1
		}
		out[i] = b
	}
	return out
}
