package collect

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"runtime"
	"testing"
	"time"

	"netsample/internal/arts"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, TypeSnapshotQuery, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := readFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if typ != TypeSnapshotQuery || string(payload) != "hello" {
		t.Fatalf("typ=%d payload=%q", typ, payload)
	}
}

func TestFrameRejectsGarbage(t *testing.T) {
	// Bad magic: rejected from the first four bytes alone.
	data := []byte{0xde, 0xad, 2, 1}
	if _, _, err := readFrame(bytes.NewReader(data)); !errors.Is(err, ErrWire) {
		t.Errorf("bad magic: %v", err)
	}
	// Bad version: a typed ErrVersion (still wrapping ErrWire), again
	// from the first four bytes, so a short v1 frame cannot stall the
	// reader.
	data = []byte{0x53, 0x4e, 99, 1}
	if _, _, err := readFrame(bytes.NewReader(data)); !errors.Is(err, ErrVersion) {
		t.Errorf("bad version not ErrVersion: %v", err)
	}
	if _, _, err := readFrame(bytes.NewReader(data)); !errors.Is(err, ErrWire) {
		t.Errorf("bad version not ErrWire: %v", err)
	}
	// A v1 frame (8-byte header, version 1, empty payload) must yield
	// ErrVersion without waiting for more bytes.
	v1 := []byte{0x53, 0x4e, 1, 1, 0, 0, 0, 0}
	if _, _, err := readFrame(bytes.NewReader(v1)); !errors.Is(err, ErrVersion) {
		t.Errorf("v1 frame: %v", err)
	}
	// Oversized payload length.
	var buf bytes.Buffer
	_ = writeFrame(&buf, TypeSnapshotQuery, nil)
	raw := buf.Bytes()
	raw[4], raw[5], raw[6], raw[7] = 0xff, 0xff, 0xff, 0xff
	if _, _, err := readFrame(bytes.NewReader(raw)); !errors.Is(err, ErrWire) {
		t.Errorf("oversized payload: %v", err)
	}
	// Truncated payload.
	buf.Reset()
	_ = writeFrame(&buf, TypeSnapshotQuery, []byte("abcdef"))
	trunc := buf.Bytes()[:buf.Len()-3]
	if _, _, err := readFrame(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated payload accepted")
	}
	// Corrupted checksum: a bit flip anywhere in header or payload is
	// rejected, never dispatched.
	buf.Reset()
	_ = writeFrame(&buf, TypeSnapshotQuery, []byte("payload"))
	for bit := 0; bit < 8; bit++ {
		for _, idx := range []int{3, 8, frameHeader + 2} { // type byte, crc byte, payload byte
			flipped := append([]byte(nil), buf.Bytes()...)
			flipped[idx] ^= 1 << bit
			if _, _, err := readFrame(bytes.NewReader(flipped)); !errors.Is(err, ErrWire) {
				t.Errorf("flip byte %d bit %d: %v", idx, bit, err)
			}
		}
	}
}

func TestReadFrameLargePayloadRoundTrip(t *testing.T) {
	// A payload crossing several growth chunks survives intact.
	big := make([]byte, 3*readChunk+17)
	for i := range big {
		big[i] = byte(i * 31)
	}
	var buf bytes.Buffer
	if err := writeFrame(&buf, TypeSnapshot, big); err != nil {
		t.Fatal(err)
	}
	typ, got, err := readFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if typ != TypeSnapshot || !bytes.Equal(got, big) {
		t.Fatalf("large payload mangled: typ=%d len=%d", typ, len(got))
	}
}

func TestReadFrameBoundedAllocation(t *testing.T) {
	// A forged header declaring MaxPayload followed by almost no data
	// must fail without ever allocating the declared 64 MiB.
	hdr := make([]byte, frameHeader)
	hdr[0], hdr[1] = 0x53, 0x4e
	hdr[2], hdr[3] = wireVersion, TypeSnapshotQuery
	binary.LittleEndian.PutUint32(hdr[4:], MaxPayload)
	data := append(hdr, make([]byte, 16)...)

	const rounds = 8
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		if _, _, err := readFrame(bytes.NewReader(data)); err == nil {
			t.Fatal("truncated jumbo frame accepted")
		}
	}
	runtime.ReadMemStats(&after)
	alloc := after.TotalAlloc - before.TotalAlloc
	// Each round may allocate up to one growth step past the received
	// bytes; 8 MiB total is orders of magnitude below the 512 MiB the
	// trust-the-header decoder would have burned.
	if alloc > 8<<20 {
		t.Fatalf("readFrame allocated %d bytes across %d truncated jumbo frames", alloc, rounds)
	}
}

// startAgent serves an agent exporting src (nil: no snapshot source)
// on an ephemeral loopback port for the life of the test.
func startAgent(t *testing.T, name string, src SnapshotSource) (*Agent, string) {
	t.Helper()
	a := NewAgent(name, arts.T3)
	a.Snapshots = src
	addr, err := a.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = a.Close() })
	return a, addr.String()
}

// TestAgentRejectsUnknownType: a request type the agent does not serve
// gets a typed error naming it, on a connection that stays open, and the
// agent keeps serving. Types 1–3 are the retired report poll, query and
// response: a collector from before their retirement must fail loud.
func TestAgentRejectsUnknownType(t *testing.T) {
	_, addr := startAgent(t, "nss-3", &fakeSnapshotSource{snap: sampleSnapshot()})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for _, tc := range []struct {
		typ     uint8
		payload []byte
	}{
		{1, binary.LittleEndian.AppendUint64(nil, 0)}, // a retired poll, acking nothing
		{2, nil},
		{3, []byte("report")},
		{42, nil},
	} {
		if err := writeFrame(conn, tc.typ, tc.payload); err != nil {
			t.Fatal(err)
		}
		typ, payload, err := readFrame(conn)
		if err != nil {
			t.Fatalf("type %d: %v", tc.typ, err)
		}
		if want := fmt.Sprintf("unsupported request type %d", tc.typ); typ != TypeError || string(payload) != want {
			t.Fatalf("type %d answered typ=%d payload=%q, want a TypeError %q", tc.typ, typ, payload, want)
		}
	}
	// The same connection still serves a snapshot query.
	if err := writeFrame(conn, TypeSnapshotQuery, nil); err != nil {
		t.Fatal(err)
	}
	if typ, _, err := readFrame(conn); err != nil || typ != TypeSnapshot {
		t.Fatalf("snapshot query after rejections: typ=%d err=%v", typ, err)
	}
}

func TestAgentSurvivesGarbageConnection(t *testing.T) {
	_, addr := startAgent(t, "nss-4", &fakeSnapshotSource{snap: sampleSnapshot()})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	_, _ = conn.Write([]byte("GET / HTTP/1.0\r\n\r\n"))
	_ = conn.Close()
	// The agent must still answer a well-formed poll.
	if _, err := NewCollector().PollSnapshot(addr); err != nil {
		t.Fatal(err)
	}
}

func TestCollectorTimeout(t *testing.T) {
	// A listener that accepts but never answers.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			// Hold the connection open silently.
			go func() { time.Sleep(5 * time.Second); conn.Close() }()
		}
	}()
	c := NewCollector()
	c.Timeout = 300 * time.Millisecond
	start := time.Now()
	_, err = c.PollSnapshot(ln.Addr().String())
	if err == nil {
		t.Fatal("silent agent did not time out")
	}
	if time.Since(start) > 3*time.Second {
		t.Fatal("timeout took too long")
	}
}
