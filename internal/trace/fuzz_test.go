package trace

import (
	"bytes"
	"errors"
	"testing"
	"time"
)

// Fuzz targets: the decoders must never panic or hang on arbitrary
// bytes — they either parse or return ErrFormat. Run with
// `go test -fuzz FuzzRead ./internal/trace` for deep exploration; the
// seeds below run in normal test mode. The MapReader's window math has
// its own target, FuzzMapReaderBounds (mapreader_test.go).

// FuzzRead decodes whole files as the CLIs do (NewMapReaderBytes +
// Trace): anything that parses re-serializes, through Write, to the
// bytes it was read from (the header's reserved field aside).
func FuzzRead(f *testing.F) {
	// Seed with a valid trace and mutations of it.
	tr := &Trace{Start: time.Unix(0, 0).UTC(), ClockUS: 400}
	tr.Packets = append(tr.Packets, Packet{Time: 0, Size: 40}, Packet{Time: 400, Size: 552})
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:10])
	f.Add([]byte("NSTR"))
	f.Add([]byte{})
	mutated := append([]byte(nil), valid...)
	mutated[30] = 0xff
	f.Add(mutated)

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := decode(data)
		if err != nil {
			if !errors.Is(err, ErrFormat) {
				t.Fatalf("decode error is not ErrFormat: %v", err)
			}
			return
		}
		var out bytes.Buffer
		if err := Write(&out, tr); err != nil {
			t.Fatalf("reserialize failed: %v", err)
		}
		in := data[:HeaderLen+tr.Len()*RecordLen]
		if re := out.Bytes(); !bytes.Equal(re[:6], in[:6]) || !bytes.Equal(re[8:], in[8:]) {
			t.Fatal("re-serialized trace differs from the bytes it was read from")
		}
	})
}

func FuzzReadPcap(f *testing.F) {
	tr := &Trace{Start: time.Unix(0, 0).UTC()}
	tr.Packets = append(tr.Packets, Packet{Time: 0, Size: 60, Protocol: 6})
	var buf bytes.Buffer
	if err := WritePcap(&buf, tr); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:20])
	f.Add([]byte{0xd4, 0xc3, 0xb2, 0xa1})
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = ReadPcap(bytes.NewReader(data))
	})
}
