package collect

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"netsample/internal/arts"
	"netsample/internal/packet"
	"netsample/internal/trace"
)

func samplePacket(i int) trace.Packet {
	return trace.Packet{
		Time: int64(i) * 1000, Size: 552, Protocol: packet.ProtoTCP,
		Src: packet.Addr{132, 249, 1, byte(i)}, Dst: packet.Addr{18, 0, 0, 1},
		SrcPort: 1024, DstPort: packet.PortFTPData,
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, TypePoll, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := readFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if typ != TypePoll || string(payload) != "hello" {
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
	_ = writeFrame(&buf, TypePoll, nil)
	raw := buf.Bytes()
	raw[4], raw[5], raw[6], raw[7] = 0xff, 0xff, 0xff, 0xff
	if _, _, err := readFrame(bytes.NewReader(raw)); !errors.Is(err, ErrWire) {
		t.Errorf("oversized payload: %v", err)
	}
	// Truncated payload.
	buf.Reset()
	_ = writeFrame(&buf, TypePoll, []byte("abcdef"))
	trunc := buf.Bytes()[:buf.Len()-3]
	if _, _, err := readFrame(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated payload accepted")
	}
	// Corrupted checksum: a bit flip anywhere in header or payload is
	// rejected, never dispatched.
	buf.Reset()
	_ = writeFrame(&buf, TypePoll, []byte("payload"))
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
	if err := writeFrame(&buf, TypeReport, big); err != nil {
		t.Fatal(err)
	}
	typ, got, err := readFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if typ != TypeReport || !bytes.Equal(got, big) {
		t.Fatalf("large payload mangled: typ=%d len=%d", typ, len(got))
	}
}

func TestReadFrameBoundedAllocation(t *testing.T) {
	// A forged header declaring MaxPayload followed by almost no data
	// must fail without ever allocating the declared 64 MiB.
	hdr := make([]byte, frameHeader)
	hdr[0], hdr[1] = 0x53, 0x4e
	hdr[2], hdr[3] = wireVersion, TypePoll
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

func TestReportRoundTrip(t *testing.T) {
	set := arts.NewObjectSet(arts.T1)
	for i := 0; i < 100; i++ {
		set.Record(samplePacket(i), 1)
	}
	payload, err := encodeReport("ENSS-SanDiego", set, 42)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := decodeReport(payload)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Node != "ENSS-SanDiego" || rep.Backbone != arts.T1 || rep.Cycle != 42 {
		t.Fatalf("header = %q %v cycle %d", rep.Node, rep.Backbone, rep.Cycle)
	}
	if len(rep.Objects) != 7 {
		t.Fatalf("objects = %d", len(rep.Objects))
	}
	m, err := rep.Matrix()
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Pairs()[0].Counters.Packets; got != 100 {
		t.Fatalf("matrix packets = %d", got)
	}
	pr, err := rep.Protocols()
	if err != nil {
		t.Fatal(err)
	}
	if pr.Protos[packet.ProtoTCP].Packets != 100 {
		t.Fatal("protocol counts wrong")
	}
	if _, err := rep.Ports(); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeReportCorruption(t *testing.T) {
	set := arts.NewObjectSet(arts.T3)
	set.Record(samplePacket(1), 1)
	payload, err := encodeReport("node", set, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Every truncation point must error, never panic.
	for cut := 0; cut < len(payload); cut++ {
		if _, err := decodeReport(payload[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	// Trailing garbage.
	if _, err := decodeReport(append(append([]byte{}, payload...), 1, 2, 3)); err == nil {
		t.Error("trailing bytes accepted")
	}
}

func TestReportMissingObjects(t *testing.T) {
	rep := &Report{Objects: map[string][]byte{}}
	if _, err := rep.Matrix(); err == nil {
		t.Error("missing matrix accepted")
	}
	if _, err := rep.Ports(); err == nil {
		t.Error("missing ports accepted")
	}
	if _, err := rep.Protocols(); err == nil {
		t.Error("missing protocols accepted")
	}
}

func startAgent(t *testing.T, name string, b arts.Backbone) (*Agent, string) {
	t.Helper()
	a := NewAgent(name, b)
	addr, err := a.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = a.Close() })
	return a, addr.String()
}

func TestAgentPollAndReset(t *testing.T) {
	a, addr := startAgent(t, "nss-1", arts.T3)
	for i := 0; i < 50; i++ {
		a.Record(samplePacket(i), 1)
	}
	c := NewCollector()
	rep, err := c.Poll(addr)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := rep.Protocols()
	if err != nil {
		t.Fatal(err)
	}
	if pr.Protos[packet.ProtoTCP].Packets != 50 {
		t.Fatalf("first poll = %+v", pr.Protos)
	}
	// Counters were reset by the poll.
	rep2, err := c.Poll(addr)
	if err != nil {
		t.Fatal(err)
	}
	pr2, err := rep2.Protocols()
	if err != nil {
		t.Fatal(err)
	}
	if len(pr2.Protos) != 0 {
		t.Fatalf("second poll not empty: %+v", pr2.Protos)
	}
}

// Query asks for the agent's live counters without cutting a cycle; no
// shipped collector sends TypeQuery, so the client half lives with the
// tests of the agent's handler.
func (c *Collector) Query(addr string) (*Report, error) {
	payload, err := c.roundTrip(addr, TypeQuery, TypeReport, nil)
	if err != nil {
		return nil, err
	}
	return decodeReport(payload)
}

func TestAgentQueryDoesNotReset(t *testing.T) {
	a, addr := startAgent(t, "nss-2", arts.T3)
	a.Record(samplePacket(0), 1)
	c := NewCollector()
	if _, err := c.Query(addr); err != nil {
		t.Fatal(err)
	}
	rep, err := c.Query(addr)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := rep.Protocols()
	if err != nil {
		t.Fatal(err)
	}
	if pr.Protos[packet.ProtoTCP].Packets != 1 {
		t.Fatal("query reset the counters")
	}
}

func TestAgentRejectsUnknownType(t *testing.T) {
	_, addr := startAgent(t, "nss-3", arts.T3)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := writeFrame(conn, 42, nil); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := readFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if typ != TypeError || !strings.Contains(string(payload), "unsupported") {
		t.Fatalf("typ=%d payload=%q", typ, payload)
	}
}

func TestAgentSurvivesGarbageConnection(t *testing.T) {
	a, addr := startAgent(t, "nss-4", arts.T3)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	_, _ = conn.Write([]byte("GET / HTTP/1.0\r\n\r\n"))
	_ = conn.Close()
	// The agent must still answer a well-formed poll.
	a.Record(samplePacket(0), 1)
	c := NewCollector()
	if _, err := c.Poll(addr); err != nil {
		t.Fatal(err)
	}
}

func TestPollAllConcurrentAndPartialFailure(t *testing.T) {
	a1, addr1 := startAgent(t, "enss-1", arts.T3)
	a2, addr2 := startAgent(t, "enss-2", arts.T3)
	for i := 0; i < 10; i++ {
		a1.Record(samplePacket(i), 1)
	}
	for i := 0; i < 20; i++ {
		a2.Record(samplePacket(i), 5) // sampled with weight 5
	}
	// A dead address mixed in.
	dead := "127.0.0.1:1" // nothing listens there
	c := NewCollector()
	c.Timeout = 2 * time.Second
	results := c.PollAll([]string{addr1, dead, addr2})
	if results[0].Err != nil || results[2].Err != nil {
		t.Fatalf("live agents failed: %v %v", results[0].Err, results[2].Err)
	}
	if results[1].Err == nil {
		t.Fatal("dead agent did not fail")
	}
	view, err := Aggregate(results)
	if err != nil {
		t.Fatal(err)
	}
	if len(view.Nodes) != 2 || len(view.Failed) != 1 {
		t.Fatalf("nodes=%v failed=%d", view.Nodes, len(view.Failed))
	}
	if view.TotalPackets() != 10+100 {
		t.Fatalf("total = %d, want 110", view.TotalPackets())
	}
}

func TestAgentConcurrentRecordAndPoll(t *testing.T) {
	a, addr := startAgent(t, "enss-race", arts.T1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 5000; i++ {
			a.Record(samplePacket(i), 1)
		}
	}()
	c := NewCollector()
	var collected uint64
	for i := 0; i < 20; i++ {
		rep, err := c.Poll(addr)
		if err != nil {
			t.Fatal(err)
		}
		pr, err := rep.Protocols()
		if err != nil {
			t.Fatal(err)
		}
		collected += pr.Protos[packet.ProtoTCP].Packets
	}
	<-done
	rep, err := c.Poll(addr)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := rep.Protocols()
	if err != nil {
		t.Fatal(err)
	}
	collected += pr.Protos[packet.ProtoTCP].Packets
	// Poll-and-reset must neither lose nor double-count packets.
	if collected != 5000 {
		t.Fatalf("collected %d, want exactly 5000", collected)
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
	_, err = c.Poll(ln.Addr().String())
	if err == nil {
		t.Fatal("silent agent did not time out")
	}
	if time.Since(start) > 3*time.Second {
		t.Fatal("timeout took too long")
	}
}
