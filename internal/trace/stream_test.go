package trace

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

func TestStreamReaderMatchesBatch(t *testing.T) {
	tr := mkTrace([]int64{0, 400, 800, 1200}, []uint16{40, 552, 1500, 28})
	tr.ClockUS = 400
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	sr, err := NewStreamReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if sr.total != 4 || sr.clockUS != 400 || !sr.start.Equal(tr.Start) {
		t.Fatalf("metadata: total=%d clock=%d", sr.total, sr.clockUS)
	}
	for i := 0; ; i++ {
		p, err := sr.Next()
		if err == io.EOF {
			if i != 4 {
				t.Fatalf("EOF after %d records", i)
			}
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if p != tr.Packets[i] {
			t.Fatalf("record %d mismatch", i)
		}
	}
	// Further reads keep returning EOF.
	if _, err := sr.Next(); err != io.EOF {
		t.Fatalf("post-EOF read: %v", err)
	}
}

func TestStreamReaderTruncation(t *testing.T) {
	tr := mkTrace([]int64{0, 400}, []uint16{40, 40})
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()[:buf.Len()-5]
	sr, err := NewStreamReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sr.Next(); err != nil {
		t.Fatal(err)
	}
	if _, err := sr.Next(); !errors.Is(err, ErrFormat) {
		t.Fatalf("truncated record: %v", err)
	}
}

func TestStreamReaderNextBatchContract(t *testing.T) {
	tr := mkTrace([]int64{0, 400, 800, 1200, 1600}, []uint16{40, 552, 1500, 28, 576})
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	// Batches smaller, equal, and larger than the stream; the bulk read
	// must deliver exactly the declared records and then (0, io.EOF).
	for _, batch := range []int{1, 2, 5, 16} {
		sr, err := NewStreamReader(bytes.NewReader(full))
		if err != nil {
			t.Fatal(err)
		}
		var got []Packet
		dst := make([]Packet, batch)
		for {
			n, err := sr.NextBatch(dst)
			got = append(got, dst[:n]...)
			if err == io.EOF {
				if n != 0 {
					t.Fatalf("batch=%d: EOF carried %d records", batch, n)
				}
				break
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if len(got) != len(tr.Packets) {
			t.Fatalf("batch=%d: %d records, want %d", batch, len(got), len(tr.Packets))
		}
		for i := range got {
			if got[i] != tr.Packets[i] {
				t.Fatalf("batch=%d: record %d mismatch", batch, i)
			}
		}
	}

	// Short stream: the complete records of the partial bulk read precede
	// the ErrFormat.
	sr, err := NewStreamReader(bytes.NewReader(full[:len(full)-5]))
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]Packet, 16)
	n, err := sr.NextBatch(dst)
	if n != 4 || !errors.Is(err, ErrFormat) {
		t.Fatalf("short stream: n=%d err=%v", n, err)
	}
	for i := 0; i < n; i++ {
		if dst[i] != tr.Packets[i] {
			t.Fatalf("short-stream record %d mismatch", i)
		}
	}
}

func TestStreamReaderBadHeader(t *testing.T) {
	if _, err := NewStreamReader(bytes.NewReader([]byte("short"))); !errors.Is(err, ErrFormat) {
		t.Error("short header accepted")
	}
	bad := make([]byte, headerLen)
	if _, err := NewStreamReader(bytes.NewReader(bad)); !errors.Is(err, ErrFormat) {
		t.Error("zero header accepted")
	}
}

func TestFilter(t *testing.T) {
	tr := mkTrace([]int64{0, 400, 800}, []uint16{40, 552, 40})
	small := tr.Filter(func(p Packet) bool { return p.Size < 100 })
	if small.Len() != 2 {
		t.Fatalf("filtered len = %d", small.Len())
	}
	if small.Packets[1].Time != 800 {
		t.Fatal("wrong packets kept")
	}
	// Original untouched.
	if tr.Len() != 3 {
		t.Fatal("filter mutated source")
	}
}
