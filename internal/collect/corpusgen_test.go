package collect

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// TestGenCorpus regenerates the checked-in fuzz seed corpora. Run
// explicitly with NSGEN_CORPUS=1; normal test runs skip it.
func TestGenCorpus(t *testing.T) {
	if os.Getenv("NSGEN_CORPUS") == "" {
		t.Skip("corpus generator; set NSGEN_CORPUS=1 to regenerate testdata/fuzz")
	}
	write := func(target, name string, data []byte) {
		dir := filepath.Join("testdata", "fuzz", target)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		content := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(data)))
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// FuzzReadFrame: realistic frames of both directions, plus
	// structurally interesting corruptions.
	frame := func(msgType uint8, payload []byte) []byte {
		var buf bytes.Buffer
		if err := writeFrame(&buf, msgType, payload); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	snapPayload, err := EncodeSnapshot(sampleSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	// The poll frames are type 1, the retired report poll, with its
	// uint64 ack payload: well-formed frames an agent must reject.
	const retiredPoll = 1
	ack := func(seq uint64) []byte { return binary.LittleEndian.AppendUint64(nil, seq) }
	write("FuzzReadFrame", "poll_frame", frame(retiredPoll, ack(1993)))
	write("FuzzReadFrame", "snapshot_frame", frame(TypeSnapshot, snapPayload))
	write("FuzzReadFrame", "empty_payload_frame", frame(retiredPoll, nil))
	truncated := frame(TypeSnapshot, snapPayload)
	write("FuzzReadFrame", "truncated_mid_payload", truncated[:len(truncated)-len(truncated)/3])
	crcFlip := frame(retiredPoll, ack(7))
	crcFlip[len(crcFlip)-1] ^= 0x01
	write("FuzzReadFrame", "payload_bit_flip", crcFlip)

	// FuzzDecodeSnapshot: a full snapshot, a bins-length lie, and a
	// truncation inside the report section.
	write("FuzzDecodeSnapshot", "full_snapshot", snapPayload)
	write("FuzzDecodeSnapshot", "truncated_snapshot", snapPayload[:len(snapPayload)/2])
	minimal, err := EncodeSnapshot(&Snapshot{Node: "n"})
	if err != nil {
		t.Fatal(err)
	}
	write("FuzzDecodeSnapshot", "minimal_snapshot", minimal)
}
