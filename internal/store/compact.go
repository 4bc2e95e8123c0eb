package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
)

// The compaction anchor records where the chain was cut: the sequence
// number and chain root of the last removed segment. The next surviving
// segment's header prevRoot must equal the anchor root, so Verify still
// covers the full retained history. Compact writes the anchor
// atomically (tmp + rename + dir fsync) before it removes any segment,
// so a crash mid-compaction leaves either the old state or the new
// anchor with some segments at or below its seq still on disk. Every
// reader of the chain skips those (walkChain), so the store reopens,
// verifies and replays the anchored history, and the next Compact
// removes them (TestStoreChainDamage/interrupted_compaction).
const (
	anchorName = "anchor"
	anchorLen  = 52 // magic 4 + version u16 + reserved u16 + seq u64 + root [32] + crc u32
)

var anchorMagic = [4]byte{'N', 'S', 'S', 'A'}

// anchorInfo is the decoded compaction anchor.
type anchorInfo struct {
	seq  uint64
	root [32]byte
}

// readAnchor loads the compaction anchor; ok=false when none exists.
func readAnchor(dir string) (a anchorInfo, ok bool, err error) {
	data, err := os.ReadFile(filepath.Join(dir, anchorName))
	if errors.Is(err, fs.ErrNotExist) {
		return a, false, nil
	}
	if err != nil {
		return a, false, fmt.Errorf("store: read anchor: %w", err)
	}
	if a, err = decodeAnchor(data); err != nil {
		return a, false, err
	}
	return a, true, nil
}

// decodeAnchor parses an anchor file's bytes, refusing any image that
// is not exactly one well-formed, checksummed anchor.
func decodeAnchor(data []byte) (a anchorInfo, err error) {
	if len(data) != anchorLen {
		return a, corruptf(anchorName, int64(len(data)), "anchor is %d bytes, want %d", len(data), anchorLen)
	}
	if [4]byte(data[0:4]) != anchorMagic {
		return a, corruptf(anchorName, 0, "bad anchor magic %q", data[0:4])
	}
	if v := binary.LittleEndian.Uint16(data[4:6]); v != segVersion {
		return a, corruptf(anchorName, 4, "unsupported anchor version %d", v)
	}
	if got, want := binary.LittleEndian.Uint32(data[48:]), crc32.ChecksumIEEE(data[:48]); got != want {
		return a, corruptf(anchorName, 48, "anchor checksum mismatch")
	}
	a.seq = binary.LittleEndian.Uint64(data[8:16])
	copy(a.root[:], data[16:48])
	return a, nil
}

// writeAnchor persists the anchor atomically.
//
//nslint:allow unreached store retention surface: Compact's anchor write; its caller is the ROADMAP bounds item's to add
func writeAnchor(dir string, a anchorInfo) error {
	var b [anchorLen]byte
	copy(b[0:4], anchorMagic[:])
	binary.LittleEndian.PutUint16(b[4:6], segVersion)
	binary.LittleEndian.PutUint64(b[8:16], a.seq)
	copy(b[16:48], a.root[:])
	binary.LittleEndian.PutUint32(b[48:], crc32.ChecksumIEEE(b[:48]))
	tmp := filepath.Join(dir, anchorName+".tmp")
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: write anchor: %w", err)
	}
	if _, err := f.Write(b[:]); err != nil {
		cerr := f.Close()
		return errors.Join(fmt.Errorf("store: write anchor: %w", err), cerr)
	}
	if err := f.Sync(); err != nil {
		cerr := f.Close()
		return errors.Join(fmt.Errorf("store: sync anchor: %w", err), cerr)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("store: close anchor: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, anchorName)); err != nil {
		return fmt.Errorf("store: install anchor: %w", err)
	}
	return syncDir(dir)
}

// Compact removes expired history: the longest prefix of sealed
// segments whose every record timestamp is older than beforeUS, and any
// segment an interrupted compaction left below the anchor. Only a
// prefix can go — the hash chain can be cut at the front (the anchor
// preserves the cut point's root) but never in the middle — so one
// still-live segment stops compaction behind it. The final segment is
// never removed: sealed, it keeps the last durable snapshot queryable;
// unsealed, it is the tail the writer resumes. Compact refuses every
// store Verify's chain walk refuses. Returns how many segment files
// were deleted.
//
// Compact must not run concurrently with a live Writer on the same
// directory; run it between writer sessions or from the query side.
//
//nslint:allow unreached store retention surface: how history is expired; its caller is the ROADMAP bounds item's to add
func Compact(dir string, beforeUS int64) (int, error) {
	var (
		cut  []segEntry
		at   anchorInfo
		kept bool
	)
	end, err := walkChain(dir, func(l *link) error {
		kept = kept || l.final || (l.seal.records > 0 && l.seal.lastUS >= beforeUS)
		if !kept {
			cut = append(cut, l.segEntry)
			at = anchorInfo{seq: l.seq, root: l.seal.root}
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	if len(cut) > 0 {
		if err := writeAnchor(dir, at); err != nil {
			return 0, err
		}
	}
	remove := append(end.leftovers, cut...)
	if len(remove) == 0 {
		return 0, nil
	}
	for _, se := range remove {
		if err := os.Remove(filepath.Join(dir, se.name)); err != nil {
			return 0, fmt.Errorf("store: compact remove %s: %w", se.name, err)
		}
	}
	if err := syncDir(dir); err != nil {
		return len(remove), err
	}
	return len(remove), nil
}
