// Micro- and layer benchmarks of the hot paths: sampling, scoring,
// trace codec and generation, flow table and top-K sketch, pipeline
// throughput, store append/replay and the cold query's wire merge. The paper's tables, figures and
// ablations run once, in cmd/experiments (DESIGN.md §4).
//
// Run everything with:
//
//	go test -bench=. -benchmem
package netsample

import (
	"bytes"
	"encoding/binary"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"
	"time"

	"netsample/internal/bins"
	"netsample/internal/collect"
	"netsample/internal/core"
	"netsample/internal/dist"
	"netsample/internal/flows"
	"netsample/internal/metrics"
	"netsample/internal/nnstat"
	"netsample/internal/online"
	"netsample/internal/pipeline"
	"netsample/internal/store"
	"netsample/internal/trace"
	"netsample/internal/traffgen"
)

var (
	benchSmallOnce sync.Once
	benchSmallTr   *trace.Trace
	benchSmallErr  error
)

// benchSmall returns a shared 2-minute population for the heavier
// parameter sweeps.
func benchSmall(b *testing.B) *trace.Trace {
	b.Helper()
	benchSmallOnce.Do(func() {
		benchSmallTr, benchSmallErr = traffgen.Generate(traffgen.SmallTrace(777))
	})
	if benchSmallErr != nil {
		b.Fatal(benchSmallErr)
	}
	return benchSmallTr
}

func BenchmarkGenerateSmallTrace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tr, err := traffgen.Generate(traffgen.SmallTrace(uint64(i)))
		if err != nil {
			b.Fatal(err)
		}
		if tr.Len() == 0 {
			b.Fatal("empty trace")
		}
	}
}

// BenchmarkGenerateHour and BenchmarkGenerateScenarioDDoS are the two
// traces every nsbench workload's setup synthesizes (the parent
// population and the 20-minute SYN-flood preset); B/op against
// 24 B × packets is the staging overhead.
func BenchmarkGenerateHour(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr, err := traffgen.Generate(traffgen.NSFNETHour())
		if err != nil {
			b.Fatal(err)
		}
		if tr.Len() == 0 {
			b.Fatal("empty trace")
		}
	}
}

func BenchmarkGenerateScenarioDDoS(b *testing.B) {
	s, err := traffgen.PresetScenario("ddos", 1993, 20*time.Minute)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr, err := traffgen.GenerateScenario(s)
		if err != nil {
			b.Fatal(err)
		}
		if tr.Len() == 0 {
			b.Fatal("empty trace")
		}
	}
}

func BenchmarkSystematicSelect(b *testing.B) {
	tr := benchSmall(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (core.SystematicCount{K: 50}).Select(tr, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStratifiedSelect(b *testing.B) {
	tr := benchSmall(b)
	r := dist.NewRNG(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (core.StratifiedCount{K: 50}).Select(tr, r); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimpleRandomSelect(b *testing.B) {
	tr := benchSmall(b)
	r := dist.NewRNG(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (core.SimpleRandom{K: 50}).Select(tr, r); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTimerSelect(b *testing.B) {
	tr := benchSmall(b)
	s, err := core.NewSystematicTimer(tr, 50, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Select(tr, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEvaluatorScore(b *testing.B) {
	tr := benchSmall(b)
	ev, err := core.NewEvaluator(tr, core.TargetSize, bins.PacketSize())
	if err != nil {
		b.Fatal(err)
	}
	idx, err := core.SystematicCount{K: 50}.Select(tr, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ev.Score(idx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFusedReplication measures the fully fused path: streaming
// systematic selection feeding a worker-local Scorer, the loop the
// figure sweeps run thousands of times. Steady-state this is 0 allocs/op
// (pinned by TestReplicationScoringZeroAllocs).
func BenchmarkFusedReplication(b *testing.B) {
	tr := benchSmall(b)
	ev, err := core.NewEvaluator(tr, core.TargetSize, bins.PacketSize())
	if err != nil {
		b.Fatal(err)
	}
	sc := ev.NewScorer()
	visit := sc.Visit
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc.Reset()
		if err := (core.SystematicCount{K: 50, Offset: i % 50}).SelectEach(tr, nil, visit); err != nil {
			b.Fatal(err)
		}
		if _, err := sc.Report(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPhiMetric(b *testing.B) {
	o := []float64{120, 330, 550}
	e := []float64{130, 320, 550}
	for i := 0; i < b.N; i++ {
		if _, err := metrics.Phi(o, e); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTraceCodec(b *testing.B) {
	tr := benchSmall(b)
	var buf bytes.Buffer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := trace.Write(&buf, tr); err != nil {
			b.Fatal(err)
		}
		if _, err := trace.Read(&buf); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(24 * tr.Len()))
}

func BenchmarkPcapCodec(b *testing.B) {
	tr := benchSmall(b)
	var buf bytes.Buffer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := trace.WritePcap(&buf, tr); err != nil {
			b.Fatal(err)
		}
		if _, err := trace.ReadPcap(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReservoirAdd(b *testing.B) {
	r, err := online.NewReservoir(1024, dist.NewRNG(1))
	if err != nil {
		b.Fatal(err)
	}
	p := trace.Packet{Size: 552}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Add(p)
	}
}

func BenchmarkStreamingSystematicOffer(b *testing.B) {
	s, err := online.NewSystematic(50, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Offer(int64(i))
	}
}

func BenchmarkEstimateMean(b *testing.B) {
	tr := benchSmall(b)
	idx, err := core.SystematicCount{K: 50}.Select(tr, nil)
	if err != nil {
		b.Fatal(err)
	}
	obs := core.Observations(tr, core.TargetSize, idx)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.EstimateMean(obs, tr.Len(), 0.95); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFlowTableAdd(b *testing.B) {
	tr := benchSmall(b)
	tab, err := flows.NewTable(2_000_000)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.Add(tr.Packets[i%tr.Len()])
	}
}

// BenchmarkFlowTableChurn is the flood shape BenchmarkFlowTableAdd never
// reaches: every packet opens a new flow, with a window cut
// (CountFlows(Flush())) every 4096 inserts. One untimed window sizes
// the slab and the key index first, so the timed loop is the warm cost.
func BenchmarkFlowTableChurn(b *testing.B) {
	tab, err := flows.NewTable(2_000_000)
	if err != nil {
		b.Fatal(err)
	}
	const perWindow = 4096
	p := trace.Packet{Size: 40, DstPort: 80}
	var flowsSeen uint64
	churn := func(i int) {
		p.Time = int64(i) * 10
		binary.LittleEndian.PutUint32(p.Src[:], uint32(i))
		tab.Add(p)
		if i%perWindow == perWindow-1 {
			flowsSeen += flows.CountFlows(tab.Flush()).Flows
		}
	}
	for i := 0; i < perWindow; i++ {
		churn(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		churn(perWindow + i)
	}
	if want := uint64(perWindow + b.N - b.N%perWindow); flowsSeen != want {
		b.Fatalf("cut %d flows, want %d", flowsSeen, want)
	}
}

// BenchmarkFlowCounterAdd is BenchmarkFlowTableAdd on the flows.Counter
// the pipeline's shards and ext-flows run. Each packet's key hash is
// made once before the timer, as the ingest kernel makes it once per
// packet, so the loop is the counter's own cost.
func BenchmarkFlowCounterAdd(b *testing.B) {
	tr := benchSmall(b)
	fc, err := flows.NewCounter(2_000_000)
	if err != nil {
		b.Fatal(err)
	}
	hashes := make([]uint32, tr.Len())
	for i, p := range tr.Packets {
		hashes[i] = flows.KeyOf(p).Hash()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % tr.Len()
		fc.AddHashed(hashes[j], tr.Packets[j])
	}
}

// BenchmarkFlowCounterChurn is BenchmarkFlowTableChurn on the counter:
// every packet opens a new flow, with a window Cut every 4096 inserts,
// after one untimed window has sized the slots and the index.
func BenchmarkFlowCounterChurn(b *testing.B) {
	fc, err := flows.NewCounter(2_000_000)
	if err != nil {
		b.Fatal(err)
	}
	const perWindow = 4096
	p := trace.Packet{Size: 40, DstPort: 80}
	var flowsSeen uint64
	churn := func(i int) {
		p.Time = int64(i) * 10
		binary.LittleEndian.PutUint32(p.Src[:], uint32(i))
		fc.AddHashed(flows.KeyOf(p).Hash(), p)
		if i%perWindow == perWindow-1 {
			flowsSeen += fc.Cut().Flows
		}
	}
	for i := 0; i < perWindow; i++ {
		churn(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		churn(perWindow + i)
	}
	if want := uint64(perWindow + b.N - b.N%perWindow); flowsSeen != want {
		b.Fatalf("cut %d flows, want %d", flowsSeen, want)
	}
}

// BenchmarkTopKEvict is the sketch's miss path: at capacity 128 (the
// pipeline default) every key is unseen, so every AddBytes evicts the
// minimum counter and rewrites its slot.
func BenchmarkTopKEvict(b *testing.B) {
	tk, err := nnstat.NewTopK(pipeline.DefaultTopKCapacity)
	if err != nil {
		b.Fatal(err)
	}
	var key [13]byte
	miss := func(i int) {
		binary.LittleEndian.PutUint32(key[:], uint32(i))
		tk.AddBytes(key[:], 1)
	}
	for i := 0; i < pipeline.DefaultTopKCapacity; i++ {
		miss(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		miss(pipeline.DefaultTopKCapacity + i)
	}
	if want := uint64(pipeline.DefaultTopKCapacity + b.N); tk.Total() != want {
		b.Fatalf("total %d, want %d", tk.Total(), want)
	}
}

func BenchmarkTopKAdd(b *testing.B) {
	tk, err := nnstat.NewTopK(256)
	if err != nil {
		b.Fatal(err)
	}
	keys := make([]string, 1024)
	r := dist.NewRNG(1)
	for i := range keys {
		keys[i] = strconv.Itoa(r.IntN(10000))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tk.Add(keys[i%len(keys)], 1)
	}
}

// BenchmarkSelectByGranularity measures selection throughput per method
// across granularities, as sub-benchmarks.
func BenchmarkSelectByGranularity(b *testing.B) {
	tr := benchSmall(b)
	for _, k := range []int{10, 100, 1000} {
		k := k
		b.Run("systematic/k="+strconv.Itoa(k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := (core.SystematicCount{K: k}).Select(tr, nil); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(tr.Len()))
		})
		b.Run("stratified/k="+strconv.Itoa(k), func(b *testing.B) {
			r := dist.NewRNG(uint64(k))
			for i := 0; i < b.N; i++ {
				if _, err := (core.StratifiedCount{K: k}).Select(tr, r); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(tr.Len()))
		})
		b.Run("random/k="+strconv.Itoa(k), func(b *testing.B) {
			r := dist.NewRNG(uint64(k))
			for i := 0; i < b.N; i++ {
				if _, err := (core.SimpleRandom{K: k}).Select(tr, r); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(tr.Len()))
		})
	}
}

// writeBenchTrace serializes tr to a temp NSTR file for the mmap
// benchmarks and returns the path.
func writeBenchTrace(b *testing.B, tr *trace.Trace) string {
	b.Helper()
	path := filepath.Join(b.TempDir(), "bench.nstr")
	var buf bytes.Buffer
	if err := trace.Write(&buf, tr); err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		b.Fatal(err)
	}
	return path
}

// BenchmarkDecodeBatch measures the fused raw ingest kernel — decode +
// shard hash + gap stamp over a whole window of NSTR records in one
// pass. One op = one record.
func BenchmarkDecodeBatch(b *testing.B) {
	tr := benchSmall(b)
	var buf bytes.Buffer
	if err := trace.Write(&buf, tr); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()[trace.HeaderLen:]
	nrec := len(raw) / trace.RecordLen
	const batch = 256
	pkts := make([]trace.Packet, batch)
	shards := make([]uint8, batch)
	gaps := make([]int64, batch)
	b.SetBytes(trace.RecordLen)
	b.ReportAllocs()
	b.ResetTimer()
	pos, prev := 0, int64(0)
	for done := 0; done < b.N; {
		n := batch
		if left := nrec - pos; left < n {
			if left == 0 {
				pos, prev = 0, 0
				continue
			}
			n = left
		}
		k := pipeline.DecodeBatch(pkts[:n], shards[:n], gaps[:n],
			raw[pos*trace.RecordLen:(pos+n)*trace.RecordLen], prev, 4)
		prev = pkts[k-1].Time
		pos += k
		done += k
	}
}

// BenchmarkMapReaderThroughput measures the zero-copy reader end to
// end: raw windows handed out of the mapped region and decoded from the
// view in one DecodeRecords pass. One op = one record.
func BenchmarkMapReaderThroughput(b *testing.B) {
	tr := benchSmall(b)
	path := writeBenchTrace(b, tr)
	mr, err := trace.OpenMap(path)
	if err != nil {
		b.Fatal(err)
	}
	defer mr.Close()
	dst := make([]trace.Packet, 512)
	b.SetBytes(trace.RecordLen)
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; {
		n, err := mr.NextBatch(dst)
		if err == io.EOF {
			mr.Rewind()
			continue
		}
		if err != nil {
			b.Fatal(err)
		}
		done += n
	}
}

// mapLoop cycles an mmap'd trace, yielding exactly n records — the
// zero-copy analogue of an endless capture stream. Its raw windows
// alias the mapping, which stays valid until Close, so it satisfies
// pipeline.RawBatchSource even across Rewind laps.
type mapLoop struct {
	mr  *trace.MapReader
	n   int
	pos int
}

func (m *mapLoop) Next() (trace.Packet, error) {
	if m.pos >= m.n {
		return trace.Packet{}, io.EOF
	}
	p, err := m.mr.Next()
	if err == io.EOF {
		m.mr.Rewind()
		p, err = m.mr.Next()
	}
	if err != nil {
		return trace.Packet{}, err
	}
	m.pos++
	return p, nil
}

func (m *mapLoop) NextRawBatch(max int) ([]byte, int, error) {
	if m.pos >= m.n {
		return nil, 0, io.EOF
	}
	if left := m.n - m.pos; left < max {
		max = left
	}
	raw, k, err := m.mr.NextRawBatch(max)
	if err == io.EOF {
		m.mr.Rewind()
		raw, k, err = m.mr.NextRawBatch(max)
	}
	if err != nil {
		return nil, 0, err
	}
	m.pos += k
	return raw, k, nil
}

// BenchmarkPipelineThroughput measures the streaming pipeline's
// end-to-end packet rate (read → sample → route → shard → aggregate) by
// shard count, with one benchmark op = one packet. The pipeline is fed
// through the zero-copy raw path: an mmap'd trace cycled by mapLoop.
// The reader goroutine reads every timestamp, which it offers the one
// sampler (the run is un-windowed), and decodes and hashes only the
// selected records; allocs/op near zero is the hot-path guarantee
// (pinned exactly by TestMapReaderHotPathAllocs).
func BenchmarkPipelineThroughput(b *testing.B) {
	tr := benchSmall(b)
	path := writeBenchTrace(b, tr)
	for _, shards := range []int{1, 2, 4} {
		b.Run("shards="+strconv.Itoa(shards), func(b *testing.B) {
			p, err := pipeline.New(pipeline.Config{
				Shards: shards,
				NewSampler: func(int) (online.Sampler, error) {
					return online.NewSystematic(50, 0)
				},
				// Flows from the cycled trace never expire mid-run, so the
				// flow table reaches steady state after the first lap.
				FlowTimeoutUS: 1 << 60,
			})
			if err != nil {
				b.Fatal(err)
			}
			mr, err := trace.OpenMap(path)
			if err != nil {
				b.Fatal(err)
			}
			defer mr.Close()
			src := &mapLoop{mr: mr, n: b.N}
			b.ReportAllocs()
			b.ResetTimer()
			if err := p.Run(src); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			if sec := b.Elapsed().Seconds(); sec > 0 {
				b.ReportMetric(float64(b.N)/sec, "pkts/s")
			}
			// Systematic 1-in-50 from the first packet.
			snap, ok := p.Latest()
			if want := uint64(b.N+49) / 50; !ok || snap.Selected != want {
				b.Fatalf("pipeline lost packets: want %d selected: %+v", want, snap)
			}
		})
	}
}

// BenchmarkStoreAppend measures the durable store's hot append path on
// 56-byte records — one op is one Append, with the group-commit
// fsync cost (one sync per store.DefaultSyncEvery appends) amortized
// into the per-op number, which is how the write path actually runs.
func BenchmarkStoreAppend(b *testing.B) {
	w, err := store.Open(b.TempDir(), store.Options{
		SegmentRecords: 1 << 30,
		SyncWindowUS:   -1,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	payload := make([]byte, metrics.ReportWireSize)
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Append(store.KindSnapshot, int64(i), payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreReplay measures the mmap read path: replay a sealed
// multi-segment store of 56-byte records, one op per record.
func BenchmarkStoreReplay(b *testing.B) {
	dir := b.TempDir()
	w, err := store.Open(dir, store.Options{SegmentRecords: 4096})
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, metrics.ReportWireSize)
	for i := 0; i < b.N; i++ {
		if err := w.Append(store.KindSnapshot, int64(i), payload); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	r, err := store.OpenReader(dir)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	var n int
	err = r.Replay(func(rec store.Record) error {
		if len(rec.Payload) != metrics.ReportWireSize {
			b.Fatalf("record %d payload %d bytes", n, len(rec.Payload))
		}
		n++
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
	if n != b.N {
		b.Fatalf("replayed %d of %d records", n, b.N)
	}
}

// BenchmarkMergeWire is the cold query's merge over a fine-windows-
// shaped range: 3600 one-second windows of 9 heavy hitters each, drawn
// from 65536 13-byte flow keys, so the fold sees tens of thousands of
// distinct keys and keeps the default ten.
func BenchmarkMergeWire(b *testing.B) {
	const windows, perWindow = 3600, 9
	rng := dist.NewRNG(1)
	snaps := make([]*collect.Snapshot, windows)
	distinct := make(map[string]bool)
	for w := range snaps {
		s := &collect.Snapshot{
			Node:          "n1",
			Seq:           uint64(w + 1),
			WindowStartUS: int64(w) * 1e6,
			WindowEndUS:   int64(w+1) * 1e6,
			Shards:        1,
			SizeCounts:    make([]uint64, 3),
			IatCounts:     make([]uint64, 5),
		}
		for i := 0; i < perWindow; i++ {
			var key [13]byte
			binary.LittleEndian.PutUint32(key[:], uint32(rng.IntN(1<<16)))
			key[12] = 6
			s.TopK = append(s.TopK, nnstat.Entry{Key: string(key[:]), Count: 1 + rng.Uint64N(4)})
			distinct[string(key[:])] = true
		}
		snaps[w] = s
	}
	if len(distinct) < 10000 {
		b.Fatalf("%d distinct keys, want tens of thousands", len(distinct))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := pipeline.MergeWire(snaps, pipeline.DefaultTopKReport)
		if err != nil {
			b.Fatal(err)
		}
		if len(m.TopK) != pipeline.DefaultTopKReport {
			b.Fatalf("merged top-k holds %d entries", len(m.TopK))
		}
	}
}
