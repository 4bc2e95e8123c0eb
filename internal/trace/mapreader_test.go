package trace

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"testing"
	"time"
)

// encodeTrace serializes tr to NSTR bytes for in-memory reader tests.
func encodeTrace(t *testing.T, tr *Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestMapReaderMatchesRead: every form of the mapped reader — per
// packet, batch, raw windows — delivers what Read parses from the same
// bytes.
func TestMapReaderMatchesRead(t *testing.T) {
	tr := mkTrace([]int64{0, 400, 800, 1200, 4000}, []uint16{40, 552, 1500, 28, 576})
	tr.ClockUS = 400
	data := encodeTrace(t, tr)
	want, err := Read(bytes.NewReader(data))
	if err != nil || !slices.Equal(want.Packets, tr.Packets) {
		t.Fatalf("Read: %v", err)
	}

	m, err := NewMapReaderBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	if m.total != uint64(want.Len()) || m.clockUS != want.ClockUS || !m.start.Equal(want.Start) {
		t.Fatalf("metadata: total=%d clock=%d start=%v", m.total, m.clockUS, m.start)
	}
	// Per-packet form.
	for i := range tr.Packets {
		p, err := m.Next()
		if err != nil {
			t.Fatal(err)
		}
		if p != tr.Packets[i] {
			t.Fatalf("record %d mismatch", i)
		}
	}
	if _, err := m.Next(); err != io.EOF {
		t.Fatalf("post-EOF read: %v", err)
	}
	// Batch form after Rewind, with a batch size that straddles the end.
	m.Rewind()
	var got []Packet
	dst := make([]Packet, 3)
	for {
		n, err := m.NextBatch(dst)
		got = append(got, dst[:n]...)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(got) != len(tr.Packets) {
		t.Fatalf("batch read %d records, want %d", len(got), len(tr.Packets))
	}
	for i := range got {
		if got[i] != tr.Packets[i] {
			t.Fatalf("batch record %d mismatch", i)
		}
	}
	// Raw form: windows concatenate to exactly the record region.
	m.Rewind()
	var raw []byte
	for {
		w, n, err := m.NextRawBatch(2)
		raw = append(raw, w...)
		if n > 0 && len(w) != n*RecordLen {
			t.Fatalf("window length %d for %d records", len(w), n)
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(raw, data[HeaderLen:]) {
		t.Fatal("raw windows do not reassemble the record region")
	}
}

func TestMapReaderTruncation(t *testing.T) {
	tr := mkTrace([]int64{0, 400, 800}, []uint16{40, 40, 40})
	data := encodeTrace(t, tr)
	// Cut mid-way through the last record.
	m, err := NewMapReaderBytes(data[: len(data)-5 : len(data)-5])
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]Packet, 8)
	n, err := m.NextBatch(dst)
	if n != 2 || err != nil {
		t.Fatalf("complete records before the cut: n=%d err=%v", n, err)
	}
	if _, err := m.NextBatch(dst); !errors.Is(err, ErrFormat) {
		t.Fatalf("truncated region: %v", err)
	}
	// The per-packet form agrees.
	m.Rewind()
	for i := 0; i < 2; i++ {
		if _, err := m.Next(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Next(); !errors.Is(err, ErrFormat) {
		t.Fatalf("truncated region via Next: %v", err)
	}
	// Trace() refuses a truncated region outright.
	if _, err := m.Trace(); !errors.Is(err, ErrFormat) {
		t.Fatalf("Trace on truncated region: %v", err)
	}
}

func TestMapReaderOversizedRegion(t *testing.T) {
	tr := mkTrace([]int64{0, 400}, []uint16{40, 552})
	data := append(encodeTrace(t, tr), 0xde, 0xad, 0xbe, 0xef)
	m, err := NewMapReaderBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.Trace()
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 || got.Packets[1] != tr.Packets[1] {
		t.Fatalf("trailing bytes leaked into records: %+v", got.Packets)
	}
	dst := make([]Packet, 8)
	if n, err := m.NextBatch(dst); n != 2 || err != nil {
		t.Fatalf("oversized region batch: n=%d err=%v", n, err)
	}
	if _, err := m.NextBatch(dst); err != io.EOF {
		t.Fatalf("oversized region end: %v", err)
	}
}

func TestMapReaderBadHeader(t *testing.T) {
	cases := map[string][]byte{
		"short":      []byte("NST"),
		"zero":       make([]byte, HeaderLen),
		"bad magic":  append([]byte("XSTR"), make([]byte, HeaderLen-4)...),
		"version 99": func() []byte { d := encodeTrace(t, mkTrace(nil, nil)); d[4] = 99; return d }(),
	}
	for name, data := range cases {
		if _, err := NewMapReaderBytes(data); !errors.Is(err, ErrFormat) {
			t.Errorf("%s header accepted: %v", name, err)
		}
	}
}

func TestOpenMapRoundTrip(t *testing.T) {
	tr := mkTrace([]int64{0, 400, 1200}, []uint16{40, 552, 28})
	tr.Start = time.Unix(733000000, 0).UTC()
	path := filepath.Join(t.TempDir(), "map.nstr")
	if err := os.WriteFile(path, encodeTrace(t, tr), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := OpenMap(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.Trace()
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 3 || !got.Start.Equal(tr.Start) {
		t.Fatalf("mapped trace: len=%d start=%v", got.Len(), got.Start)
	}
	for i := range tr.Packets {
		if got.Packets[i] != tr.Packets[i] {
			t.Fatalf("record %d mismatch", i)
		}
	}
	// Trace() must not move the stream position.
	if p, err := m.Next(); err != nil || p != tr.Packets[0] {
		t.Fatalf("position moved by Trace: %v %v", p, err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	// Closed reader reports ErrFormat instead of faulting on unmapped
	// pages, and closing twice is safe.
	if _, err := m.Next(); !errors.Is(err, ErrFormat) {
		t.Fatalf("read after close: %v", err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	if _, err := OpenMap(filepath.Join(t.TempDir(), "missing.nstr")); err == nil {
		t.Fatal("missing file accepted")
	}
}

// FuzzMapReaderBounds drives the raw-window math over arbitrary
// regions: construction either rejects the header with ErrFormat or
// yields a reader whose batched walk never panics, never hands out a
// misaligned window, and accounts for every record exactly once; on
// every non-truncated region Trace() — view or copy, as the region's
// address falls — equals DecodeRecords over the same bytes.
// Checked-in seeds live in testdata/fuzz/FuzzMapReaderBounds
// (regenerate with NSGEN_CORPUS=1 go test -run TestGenMapCorpus
// ./internal/trace).
func FuzzMapReaderBounds(f *testing.F) {
	tr := mkTrace([]int64{0, 400, 800}, []uint16{40, 552, 1500})
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid, 3)
	f.Add(valid[:len(valid)-7], 2)
	f.Add(append(append([]byte(nil), valid...), 0xff, 0xee), 1)
	f.Add([]byte("NSTR"), 1)
	f.Add([]byte{}, 8)
	forged := append([]byte(nil), valid...)
	forged[24] = 0xff // count lies far beyond the region
	f.Add(forged, 4)

	f.Fuzz(func(t *testing.T, data []byte, batch int) {
		m, err := NewMapReaderBytes(data)
		if err != nil {
			if !errors.Is(err, ErrFormat) {
				t.Fatalf("construction error is not ErrFormat: %v", err)
			}
			return
		}
		var records uint64
		for i := 0; i < 1<<16; i++ {
			raw, n, err := m.NextRawBatch(batch)
			if len(raw) != n*RecordLen {
				t.Fatalf("window of %d bytes for %d records", len(raw), n)
			}
			records += uint64(n)
			if err != nil {
				if !errors.Is(err, io.EOF) && !errors.Is(err, ErrFormat) {
					t.Fatalf("unexpected error type: %v", err)
				}
				break
			}
			if batch <= 0 {
				// A non-positive batch makes no progress by contract;
				// don't spin the remaining iterations on it.
				break
			}
		}
		if batch > 0 && records != m.avail {
			t.Fatalf("walk delivered %d records, region holds %d", records, m.avail)
		}
		tr, err := m.Trace()
		if m.avail < m.total {
			if !errors.Is(err, ErrFormat) {
				t.Fatalf("Trace() on a truncated region: %v", err)
			}
			return
		}
		want := make([]Packet, m.total)
		DecodeRecords(want, data[HeaderLen:])
		if err != nil || !slices.Equal(tr.Packets, want) {
			t.Fatalf("Trace() differs from DecodeRecords over the region (err=%v)", err)
		}
	})
}

// TestGenMapCorpus regenerates the checked-in FuzzMapReaderBounds seed
// corpus. Run explicitly with NSGEN_CORPUS=1; normal test runs skip it.
func TestGenMapCorpus(t *testing.T) {
	if os.Getenv("NSGEN_CORPUS") == "" {
		t.Skip("corpus generator; set NSGEN_CORPUS=1 to regenerate testdata/fuzz")
	}
	write := func(name string, data []byte, batch int) {
		dir := filepath.Join("testdata", "fuzz", "FuzzMapReaderBounds")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		content := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\nint(%d)\n",
			strconv.Quote(string(data)), batch)
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	tr := mkTrace([]int64{0, 400, 800, 1200}, []uint16{40, 552, 1500, 28})
	valid := encodeTrace(t, tr)

	write("valid_trace", valid, 3)
	write("header_only", valid[:HeaderLen], 2)
	write("cut_mid_record", valid[:HeaderLen+2*RecordLen+11], 2)
	write("trailing_garbage", append(append([]byte(nil), valid...), 0xba, 0xad), 1)
	forgedCount := append([]byte(nil), valid...)
	for i := 24; i < 32; i++ {
		forgedCount[i] = 0xff
	}
	write("forged_count_max", forgedCount, 4)
	zeroCount := append([]byte(nil), valid...)
	for i := 24; i < 32; i++ {
		zeroCount[i] = 0
	}
	write("zero_count_with_records", zeroCount, 4)
}
