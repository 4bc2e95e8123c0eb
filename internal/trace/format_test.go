package trace

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
	"time"

	"netsample/internal/dist"
	"netsample/internal/packet"
)

// decode reads NSTR bytes the way the CLIs read a trace file:
// NewMapReaderBytes, then Trace.
func decode(data []byte) (*Trace, error) {
	m, err := NewMapReaderBytes(data)
	if err != nil {
		return nil, err
	}
	return m.Trace()
}

func TestFormatRoundTrip(t *testing.T) {
	tr := mkTrace([]int64{0, 400, 1200, 99_000_000}, []uint16{40, 552, 1500, 28})
	tr.ClockUS = 400
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := decode(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got.ClockUS != 400 || !got.Start.Equal(tr.Start) {
		t.Fatalf("metadata mismatch: %+v", got)
	}
	if len(got.Packets) != len(tr.Packets) {
		t.Fatalf("count mismatch: %d", len(got.Packets))
	}
	for i := range tr.Packets {
		if got.Packets[i] != tr.Packets[i] {
			t.Fatalf("record %d mismatch:\n got %+v\nwant %+v", i, got.Packets[i], tr.Packets[i])
		}
	}
}

func TestFormatEmptyTrace(t *testing.T) {
	tr := &Trace{Start: time.Unix(0, 0).UTC(), ClockUS: 400}
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := decode(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 {
		t.Fatalf("len = %d", got.Len())
	}
}

func TestFormatRejectsBadMagic(t *testing.T) {
	tr := mkTrace([]int64{0}, []uint16{40})
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[0] = 'X'
	if _, err := decode(data); !errors.Is(err, ErrFormat) {
		t.Fatalf("bad magic: %v", err)
	}
}

func TestFormatRejectsBadVersion(t *testing.T) {
	tr := mkTrace([]int64{0}, []uint16{40})
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[4] = 99
	if _, err := decode(data); !errors.Is(err, ErrFormat) {
		t.Fatalf("bad version: %v", err)
	}
}

func TestFormatRejectsTruncation(t *testing.T) {
	tr := mkTrace([]int64{0, 400, 800}, []uint16{40, 40, 40})
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for _, cut := range []int{3, headerLen - 1, headerLen + 5, len(data) - 1} {
		if _, err := decode(data[:cut]); !errors.Is(err, ErrFormat) {
			t.Errorf("truncation at %d accepted: %v", cut, err)
		}
	}
}

func TestFormatRejectsAbsurdCount(t *testing.T) {
	tr := mkTrace([]int64{0}, []uint16{40})
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Corrupt the count field to a huge value.
	for i := 24; i < 32; i++ {
		data[i] = 0xff
	}
	if _, err := decode(data); !errors.Is(err, ErrFormat) {
		t.Fatalf("absurd count accepted: %v", err)
	}
}

func TestFormatRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := dist.NewRNG(uint64(seed))
		n := r.IntN(50)
		tr := &Trace{Start: time.Unix(r.Int64N(1e9), 0).UTC(), ClockUS: 400}
		var ts int64
		for i := 0; i < n; i++ {
			ts += r.Int64N(5) * 400
			tr.Packets = append(tr.Packets, Packet{
				Time:     ts,
				Size:     uint16(28 + r.IntN(1473)),
				Protocol: packet.Protocol(r.IntN(256)),
				TCPFlags: uint8(r.IntN(64)),
				Src:      packet.AddrFrom(uint32(r.Uint64())),
				Dst:      packet.AddrFrom(uint32(r.Uint64())),
				SrcPort:  uint16(r.IntN(65536)),
				DstPort:  uint16(r.IntN(65536)),
			})
		}
		var buf bytes.Buffer
		if err := Write(&buf, tr); err != nil {
			return false
		}
		got, err := decode(buf.Bytes())
		if err != nil || len(got.Packets) != n {
			return false
		}
		for i := range tr.Packets {
			if got.Packets[i] != tr.Packets[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
