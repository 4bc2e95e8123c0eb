package store

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// TestGenCorpus regenerates the checked-in fuzz seed corpus. Run
// explicitly with NSGEN_CORPUS=1; normal test runs skip it.
func TestGenCorpus(t *testing.T) {
	if os.Getenv("NSGEN_CORPUS") == "" {
		t.Skip("corpus generator; set NSGEN_CORPUS=1 to regenerate testdata/fuzz")
	}
	write := func(target, name string, args ...any) {
		dir := filepath.Join("testdata", "fuzz", target)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		content := "go test fuzz v1\n"
		for _, a := range args {
			if b, ok := a.([]byte); ok {
				content += fmt.Sprintf("[]byte(%s)\n", strconv.Quote(string(b)))
			} else {
				content += fmt.Sprintf("%T(%v)\n", a, a)
			}
		}
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// FuzzSegmentDecode: every structurally distinct segment state the
	// scanner classifies — clean sealed/unsealed, each tear class, and
	// a CRC-detected flip.
	sealed := fuzzSegImage(true)
	unsealed := fuzzSegImage(false)
	write("FuzzSegmentDecode", "sealed_segment", sealed)
	write("FuzzSegmentDecode", "unsealed_segment", unsealed)
	write("FuzzSegmentDecode", "torn_seal_footer", sealed[:len(sealed)-5])
	write("FuzzSegmentDecode", "torn_record", unsealed[:len(unsealed)-3])
	write("FuzzSegmentDecode", "torn_frame_header", unsealed[:headerLen+frameHdrLen/2])
	write("FuzzSegmentDecode", "trailing_after_seal", append(fuzzSegImage(true), 0xAA))
	write("FuzzSegmentDecode", "torn_creation", []byte("NSSG"))
	flip := fuzzSegImage(true)
	flip[headerLen+20] ^= 0x40
	write("FuzzSegmentDecode", "record_bit_flip", flip)

	// FuzzStoreChain: each mutation on a sealed segment and on the tail.
	for name, m := range chainSeeds() {
		write("FuzzStoreChain", name, m.op, m.seg, m.off, m.bit)
	}
}
