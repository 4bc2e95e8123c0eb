package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"netsample/internal/collect"
	"netsample/internal/metrics"
)

// testPayload renders a deterministic record payload for index i.
func testPayload(i int) []byte {
	return []byte(fmt.Sprintf("record-%04d:%s", i, string(rune('a'+i%26))))
}

// fillStore writes n records through a Writer with small segments so the
// test store spans several sealed segments plus an unsealed tail.
func fillStore(t testing.TB, dir string, n int, opts Options) {
	t.Helper()
	w, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := 0; i < n; i++ {
		if err := w.Append(KindSnapshot, int64(1000*(i+1)), testPayload(i)); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// replayPayloads replays the whole store into copied payload slices.
func replayPayloads(t *testing.T, dir string) [][]byte {
	t.Helper()
	got, err := replayAll(dir)
	if err != nil {
		t.Fatalf("OpenReader+Replay: %v", err)
	}
	return got
}

// replayAll opens a Reader and replays the whole store into copied
// payload slices, returning the first error either step meets.
func replayAll(dir string) ([][]byte, error) {
	r, err := OpenReader(dir)
	if err != nil {
		return nil, err
	}
	var got [][]byte
	err = r.Replay(func(rec Record) error {
		got = append(got, bytes.Clone(rec.Payload))
		return nil
	})
	return got, err
}

// dirImage reads every file in dir, by name.
func dirImage(t testing.TB, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	img := make(map[string][]byte, len(entries))
	for _, e := range entries {
		if img[e.Name()], err = os.ReadFile(filepath.Join(dir, e.Name())); err != nil {
			t.Fatal(err)
		}
	}
	return img
}

// openClose opens a Writer on dir and closes it at once: the recovery
// Open runs, and nothing is appended.
func openClose(dir string, opts Options) error {
	w, err := Open(dir, opts)
	if err != nil {
		return err
	}
	return w.Close()
}

func TestStoreAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	const n = 29
	fillStore(t, dir, n, Options{SegmentRecords: 8, SyncEvery: 3})
	got := replayPayloads(t, dir)
	if len(got) != n {
		t.Fatalf("replayed %d records, want %d", len(got), n)
	}
	for i, p := range got {
		if !bytes.Equal(p, testPayload(i)) {
			t.Fatalf("record %d: got %q want %q", i, p, testPayload(i))
		}
	}
	if err := Verify(dir); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	r, err := OpenReader(dir)
	if err != nil {
		t.Fatalf("OpenReader: %v", err)
	}
	segs := r.Segments()
	if len(segs) != 4 { // 8+8+8 sealed + 5-record tail
		t.Fatalf("got %d segments, want 4: %+v", len(segs), segs)
	}
	for i, si := range segs {
		wantSealed := i < 3
		if si.Sealed != wantSealed {
			t.Fatalf("segment %d sealed=%v, want %v", i, si.Sealed, wantSealed)
		}
	}
	first, last, ok := r.Bounds()
	if !ok || first != 1000 || last != int64(1000*n) {
		t.Fatalf("Bounds = %d..%d ok=%v, want 1000..%d", first, last, ok, 1000*n)
	}
}

func TestStoreQueryRange(t *testing.T) {
	dir := t.TempDir()
	fillStore(t, dir, 20, Options{SegmentRecords: 5})
	r, err := OpenReader(dir)
	if err != nil {
		t.Fatalf("OpenReader: %v", err)
	}
	// Records carry timestamps 1000, 2000, ..., 20000; the inclusive
	// range [6000, 12000] holds records 5..11 (0-based).
	var times []int64
	err = r.Query(6000, 12000, func(rec Record) error {
		times = append(times, rec.TimeUS)
		return nil
	})
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if len(times) != 7 || times[0] != 6000 || times[len(times)-1] != 12000 {
		t.Fatalf("Query returned %v", times)
	}
}

func TestStoreWriterRejects(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := w.Append(kindSeal, 1, nil); err == nil {
		t.Fatal("Append accepted the reserved seal kind")
	}
	if err := w.Append(0, 1, nil); err == nil {
		t.Fatal("Append accepted kind 0")
	}
	if err := w.Append(KindSnapshot, 1, make([]byte, maxRecordPayload+1)); err == nil {
		t.Fatal("Append accepted an oversized payload")
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := w.Append(KindSnapshot, 1, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Append after Close = %v, want ErrClosed", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestStoreRetiredReportKindStillReads: kind 2 held metrics.Report
// records, which the store no longer writes under a name. A store that
// holds one — appended here through Append, as an older writer could
// have — must still verify and replay, and Snapshots must skip the
// record rather than fail on it.
func TestStoreRetiredReportKindStillReads(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{SegmentRecords: 2})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	snaps := []*collect.Snapshot{{Node: "n", Seq: 1, WindowEndUS: 1000}, {Node: "n", Seq: 2, WindowEndUS: 3000}}
	rep := metrics.Report{ChiSquare: 1.5, Significance: 0.25, Phi: 0.125}
	if err := w.AppendSnapshot(snaps[0]); err != nil {
		t.Fatalf("AppendSnapshot: %v", err)
	}
	if err := w.Append(2, 2000, metrics.AppendReport(nil, rep)); err != nil {
		t.Fatalf("Append kind 2: %v", err)
	}
	if err := w.AppendSnapshot(snaps[1]); err != nil {
		t.Fatalf("AppendSnapshot: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := Verify(dir); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	r, err := OpenReader(dir)
	if err != nil {
		t.Fatalf("OpenReader: %v", err)
	}
	var kinds []uint8
	err = r.Replay(func(rec Record) error {
		kinds = append(kinds, rec.Kind)
		if rec.Kind == 2 {
			if got, rest, err := metrics.DecodeReport(rec.Payload); err != nil || len(rest) != 0 || got != rep {
				t.Errorf("kind-2 payload replayed as %+v (rest %d, %v), want %+v", got, len(rest), err, rep)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if !reflect.DeepEqual(kinds, []uint8{KindSnapshot, 2, KindSnapshot}) {
		t.Fatalf("replayed kinds %v, want [1 2 1]", kinds)
	}
	got, err := r.Snapshots(0, 1<<62)
	if err != nil {
		t.Fatalf("Snapshots: %v", err)
	}
	if len(got) != 2 || got[0].Seq != 1 || got[1].Seq != 2 {
		t.Fatalf("Snapshots returned %d records, want windows 1 and 2 with the kind-2 record skipped", len(got))
	}
}

// TestStoreVerifyDetectsEveryFlippedByte is the acceptance pin: flip
// each byte of every sealed segment in turn and require Verify to
// report corruption naming that segment.
func TestStoreVerifyDetectsEveryFlippedByte(t *testing.T) {
	dir := t.TempDir()
	fillStore(t, dir, 13, Options{SegmentRecords: 5, SyncEvery: 2})
	if err := Verify(dir); err != nil {
		t.Fatalf("pristine Verify: %v", err)
	}
	r, err := OpenReader(dir)
	if err != nil {
		t.Fatalf("OpenReader: %v", err)
	}
	for _, si := range r.Segments() {
		if !si.Sealed {
			continue
		}
		path := filepath.Join(dir, si.Name)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("read %s: %v", si.Name, err)
		}
		for off := range data {
			for _, mask := range []byte{0x01, 0x80} {
				mut := bytes.Clone(data)
				mut[off] ^= mask
				if err := os.WriteFile(path, mut, 0o644); err != nil {
					t.Fatalf("write mutated %s: %v", si.Name, err)
				}
				verr := Verify(dir)
				if verr == nil {
					t.Fatalf("%s: flipped bit %#x at offset %d went undetected", si.Name, mask, off)
				}
				var ce *CorruptionError
				if !errors.As(verr, &ce) {
					t.Fatalf("%s offset %d: Verify error %v is not a CorruptionError", si.Name, off, verr)
				}
				if !errors.Is(verr, ErrCorrupt) {
					t.Fatalf("CorruptionError does not unwrap to ErrCorrupt")
				}
				if ce.Segment != si.Name {
					// A flipped prevRoot byte is attributed to the
					// segment holding it; any attribution to a real
					// segment in the chain is acceptable only when the
					// damage is in a chain field — record damage must
					// name its own segment.
					t.Fatalf("%s offset %d: corruption attributed to %s", si.Name, off, ce.Segment)
				}
				// Every reader of the chain stops at the same segment,
				// and Open never rewrites a sealed one.
				_, rerr := replayAll(dir)
				var rce *CorruptionError
				if !errors.As(rerr, &rce) || rce.Segment != ce.Segment {
					t.Fatalf("%s offset %d: OpenReader+Replay = %v, Verify named %s", si.Name, off, rerr, ce.Segment)
				}
				_ = openClose(dir, Options{SegmentRecords: 5, SyncEvery: 2})
				if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, mut) {
					t.Fatalf("%s offset %d: Open rewrote the sealed segment (%v)", si.Name, off, err)
				}
			}
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatalf("restore %s: %v", si.Name, err)
		}
	}
	if err := Verify(dir); err != nil {
		t.Fatalf("restored Verify: %v", err)
	}
}

// TestStoreCrashRecoverySoak kills the writer at every byte offset:
// because segment files are strictly append-only, every reachable crash
// state is "files 0..i-1 complete, file i truncated at offset o". For
// each such state the store must reopen, replay a bit-identical prefix
// of the original record sequence, and, once a reopened writer appends
// the records the replay lacks, hold segment files byte-identical to
// the uninterrupted store's: a resumed writer seals and rotates where
// the first one would have. A clean Close is one of the cuts.
func TestStoreCrashRecoverySoak(t *testing.T) {
	ref := t.TempDir()
	const n = 9
	opts := Options{SegmentRecords: 4, SyncEvery: 1}
	fillStore(t, ref, n, opts)
	refSegs, err := listSegments(ref)
	if err != nil {
		t.Fatalf("listSegments: %v", err)
	}
	if len(refSegs) != 3 {
		t.Fatalf("reference store has %d segments, want 3", len(refSegs))
	}
	if err := Verify(ref); err != nil {
		t.Fatalf("Verify reference: %v", err)
	}
	refImage := dirImage(t, ref)
	type segImage struct {
		name string
		data []byte
	}
	var images []segImage
	// recordsBefore[i] = records fully contained in segments before i.
	recordsBefore := make([]int, len(refSegs)+1)
	for i, se := range refSegs {
		data := refImage[se.name]
		images = append(images, segImage{name: se.name, data: data})
		st, err := scanSegment(se.name, se.seq, data, false, nil)
		if err != nil || st.torn != nil {
			t.Fatalf("scan reference %s: %v / %v", se.name, err, st.torn)
		}
		recordsBefore[i+1] = recordsBefore[i] + int(st.records)
	}
	if recordsBefore[len(refSegs)] != n {
		t.Fatalf("reference holds %d records, want %d", recordsBefore[len(refSegs)], n)
	}
	states := 0
	for i, img := range images {
		for cut := 0; cut <= len(img.data); cut++ {
			if i == len(images)-1 && cut == len(img.data) {
				continue // that is the uncrashed store
			}
			states++
			dir := t.TempDir()
			for j := 0; j < i; j++ {
				if err := os.WriteFile(filepath.Join(dir, images[j].name), images[j].data, 0o644); err != nil {
					t.Fatalf("stage %s: %v", images[j].name, err)
				}
			}
			if err := os.WriteFile(filepath.Join(dir, img.name), img.data[:cut], 0o644); err != nil {
				t.Fatalf("stage truncated %s: %v", img.name, err)
			}

			if err := openClose(dir, opts); err != nil {
				t.Fatalf("seg %d cut %d: recovery: %v", i, cut, err)
			}
			got := replayPayloads(t, dir)
			// Recovery must keep every record from completed segments
			// and an in-order prefix of the cut segment's records —
			// bit-identical to the original sequence.
			if len(got) < recordsBefore[i] || len(got) > recordsBefore[i+1] {
				t.Fatalf("seg %d cut %d: replayed %d records, want within [%d,%d]",
					i, cut, len(got), recordsBefore[i], recordsBefore[i+1])
			}
			for k, p := range got {
				if !bytes.Equal(p, testPayload(k)) {
					t.Fatalf("seg %d cut %d: record %d diverged: got %q want %q",
						i, cut, k, p, testPayload(k))
				}
			}
			// The recovered store continues as if never interrupted.
			w, err := Open(dir, opts)
			if err != nil {
				t.Fatalf("seg %d cut %d: second Open: %v", i, cut, err)
			}
			for k := len(got); k < n; k++ {
				if err := w.Append(KindSnapshot, int64(1000*(k+1)), testPayload(k)); err != nil {
					t.Fatalf("seg %d cut %d: Append %d: %v", i, cut, k, err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatalf("seg %d cut %d: second Close: %v", i, cut, err)
			}
			if img := dirImage(t, dir); !reflect.DeepEqual(img, refImage) {
				t.Fatalf("seg %d cut %d: continued store differs from the uninterrupted one", i, cut)
			}
		}
	}
	if states == 0 {
		t.Fatal("soak exercised no crash states")
	}
	t.Logf("soak exercised %d crash states", states)
}

// TestStoreChainDamage: Open, OpenReader and Verify read the segment
// chain through one walk, so they refuse the same damaged stores, name
// the same segment, and leave every file as it was.
func TestStoreChainDamage(t *testing.T) {
	const n = 14 // 4 records a segment: three sealed segments and a 2-record tail
	opts := Options{SegmentRecords: 4}
	foreign := t.TempDir()
	fillStore(t, foreign, n, Options{SegmentRecords: 3}) // same records, other roots
	rows := []struct {
		name   string
		damage func(dir string) error
		want   string // the segment every entry point must name
		reason string // and what its reason must say
	}{
		{"missing middle segment", func(dir string) error {
			return os.Remove(filepath.Join(dir, segName(2)))
		}, segName(3), segName(2) + " is missing"},
		{"foreign segment", func(dir string) error {
			data, err := os.ReadFile(filepath.Join(foreign, segName(2)))
			if err != nil {
				return err
			}
			return os.WriteFile(filepath.Join(dir, segName(2)), data, 0o644)
		}, segName(2), "chain broken"},
		{"chain starts past segment 1", func(dir string) error {
			for _, seq := range []uint64{1, 2} {
				if err := os.Remove(filepath.Join(dir, segName(seq))); err != nil {
					return err
				}
			}
			// A stray file is not part of the chain, even one named and
			// sized like the retired 52-byte compaction anchor.
			return os.WriteFile(filepath.Join(dir, "anchor"), make([]byte, 52), 0o644)
		}, segName(3), segName(1) + " is missing"},
		{"unsealed segment before the tail", func(dir string) error {
			path := filepath.Join(dir, segName(2))
			fi, err := os.Stat(path)
			if err != nil {
				return err
			}
			return os.Truncate(path, fi.Size()-sealFrameLen)
		}, segName(2), "unsealed segment before end of chain"},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			dir := t.TempDir()
			fillStore(t, dir, n, opts)
			if err := row.damage(dir); err != nil {
				t.Fatal(err)
			}
			before := dirImage(t, dir)
			openErr := openClose(dir, opts)
			_, readErr := OpenReader(dir)
			verifyErr := Verify(dir)
			for _, c := range []struct {
				entry string
				err   error
			}{{"Open", openErr}, {"OpenReader", readErr}, {"Verify", verifyErr}} {
				var ce *CorruptionError
				if !errors.As(c.err, &ce) || ce.Segment != row.want || !strings.Contains(ce.Reason, row.reason) {
					t.Errorf("%s = %v, want a CorruptionError naming %s and %q", c.entry, c.err, row.want, row.reason)
				}
			}
			if !reflect.DeepEqual(dirImage(t, dir), before) {
				t.Error("refusing the store changed its files")
			}
		})
	}
}

// TestOpenNeverTruncatesSealed: a flipped record byte in a sealed last
// segment is corruption, not a torn tail. Open must name the damaged
// frame and leave every file as it was.
func TestOpenNeverTruncatesSealed(t *testing.T) {
	dir := t.TempDir()
	fillStore(t, dir, 8, Options{SegmentRecords: 4}) // two sealed segments, no tail
	path := filepath.Join(dir, segName(2))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[headerLen+frameHdrLen] ^= 0x01 // first payload byte of the first record
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	before := dirImage(t, dir)
	if len(before) != 2 {
		t.Fatalf("store holds %d files, want two sealed segments", len(before))
	}
	err = openClose(dir, Options{SegmentRecords: 4})
	var ce *CorruptionError
	if !errors.As(err, &ce) || ce.Segment != segName(2) || ce.Offset != headerLen {
		t.Fatalf("Open = %v, want a CorruptionError naming %s offset %d", err, segName(2), headerLen)
	}
	if !reflect.DeepEqual(dirImage(t, dir), before) {
		t.Fatal("Open rewrote the store")
	}
	if err := Verify(dir); err == nil {
		t.Fatal("Verify passed the damaged store")
	}
}

// TestStoreAppendAllocs pins the hot append path: the frame buffer and
// leaf slice retain capacity, so a steady-state append allocates only
// when the active segment's leaf-hash slice, one hash a record, grows.
// The count is exact: every allocation of the 1000 appends is one such
// growth (one here, the slice's capacity passing 3000 records).
func TestStoreAppendAllocs(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{SegmentRecords: 1 << 20, SyncEvery: 64, SyncWindowUS: -1})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer w.Close()
	payload := make([]byte, metrics.ReportWireSize)
	var clock int64
	// Warm-up grows buf and leaves to steady-state capacity.
	for i := 0; i < 2048; i++ {
		clock++
		if err := w.Append(KindSnapshot, clock, payload); err != nil {
			t.Fatalf("warm-up Append: %v", err)
		}
	}
	var grows uint64
	n := mallocs(1000, func() {
		clock++
		c := cap(w.leaves)
		if err := w.Append(KindSnapshot, clock, payload); err != nil {
			t.Fatalf("Append: %v", err)
		}
		if cap(w.leaves) != c {
			grows++
		}
	})
	if n != grows || grows > 1 {
		t.Errorf("1000 appends allocate %d times, of which the leaf slice grew %d (want at most 1)", n, grows)
	}
}

// mallocs counts the heap allocations of n calls of f exactly, where
// testing.AllocsPerRun's integer mean hides fewer than one a call.
func mallocs(n int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range n {
		f()
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

func TestStoreTornCreationRemoved(t *testing.T) {
	dir := t.TempDir()
	fillStore(t, dir, 4, Options{SegmentRecords: 4}) // one sealed segment
	// Simulate a crash during the next segment's creation: header half
	// written.
	husk := filepath.Join(dir, segName(2))
	if err := os.WriteFile(husk, []byte("NSSG"), 0o644); err != nil {
		t.Fatalf("stage husk: %v", err)
	}
	w, err := Open(dir, Options{SegmentRecords: 4})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := w.Append(KindSnapshot, 99_000, testPayload(4)); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := Verify(dir); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if got := replayPayloads(t, dir); len(got) != 5 {
		t.Fatalf("replayed %d records, want 5", len(got))
	}
}

// TestStoreAppendSnapshotSharedScratch pins the writer-owned encode
// buffer from both sides: a warm AppendSnapshot allocates (amortized)
// nothing, and concurrent callers never see each other's bytes — every
// stored payload is one caller's snapshot, whole.
func TestStoreAppendSnapshotSharedScratch(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{SegmentRecords: 1 << 20, SyncEvery: 64, SyncWindowUS: -1})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	const writers, each, timed = 4, 200, 1000
	snaps := make([]*collect.Snapshot, writers)
	want := make(map[string]int)
	for g := range snaps {
		// Different lengths, so a buffer torn between two callers cannot
		// pass for either's payload.
		snaps[g] = &collect.Snapshot{
			Node: strings.Repeat("n", g+1), Seq: uint64(g), WindowEndUS: int64(g),
			SizeCounts: make([]uint64, 3+g),
		}
		payload, err := collect.EncodeSnapshot(snaps[g])
		if err != nil {
			t.Fatal(err)
		}
		want[string(payload)] = each
		if g == 0 {
			want[string(payload)] += timed + 1 // AllocsPerRun warms up once
		}
	}
	var wg sync.WaitGroup
	for _, s := range snaps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := w.AppendSnapshot(s); err != nil {
					t.Errorf("AppendSnapshot: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if avg := testing.AllocsPerRun(timed, func() {
		if err := w.AppendSnapshot(snaps[0]); err != nil {
			t.Fatalf("AppendSnapshot: %v", err)
		}
	}); avg > 0.5 {
		t.Errorf("warm AppendSnapshot allocates %.2f objects/op, want amortized ~0", avg)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	got := make(map[string]int)
	for _, p := range replayPayloads(t, dir) {
		got[string(p)]++
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("stored payloads are not the callers' snapshots: %d distinct payloads stored, %d appended", len(got), len(want))
	}
}
