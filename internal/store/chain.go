package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"netsample/internal/trace"
)

// segEntry is one segment file found by listSegments.
type segEntry struct {
	seq  uint64
	name string
}

// listSegments enumerates the directory's segment files in sequence
// order.
func listSegments(dir string) ([]segEntry, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: list %s: %w", dir, err)
	}
	var segs []segEntry
	for _, e := range entries {
		name := e.Name()
		if len(name) != len("seg-00000000.nss") ||
			!strings.HasPrefix(name, "seg-") || !strings.HasSuffix(name, ".nss") {
			continue
		}
		seq, err := strconv.ParseUint(name[4:12], 10, 64)
		if err != nil || name != segName(seq) {
			continue
		}
		segs = append(segs, segEntry{seq: seq, name: name})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].seq < segs[j].seq })
	return segs, nil
}

// link is one segment of the chain as walkChain reads it. data is the
// segment's read-only mapping, valid only inside the visit callback.
type link struct {
	segEntry
	data     []byte
	prevRoot [32]byte // the predecessor's root, which the header carries
	final    bool     // the last segment of the chain
	sealed   bool     // data ends in an intact seal frame
	seal     sealInfo // that frame's payload, when sealed
}

// chainEnd is what a new segment chains onto: the seq it takes and the
// root of the last sealed link.
type chainEnd struct {
	seq  uint64
	root [32]byte
}

// walkChain is the one reading of a store's segment chain: Open,
// OpenReader and Verify differ only in what visit does with each link,
// so they accept the same stores. The segments must carry consecutive
// seqs from 1. Each segment is mapped once; its header must name its
// file's seq and carry the running root as prevRoot (zero for segment
// 1). A segment is sealed if and only if its last sealFrameLen bytes are
// an intact seal frame, whose root the next link must carry. Only the
// final segment may be unsealed: that is the tail, and a tail shorter
// than its header (a torn creation) reaches visit unparsed.
func walkChain(dir string, visit func(*link) error) (end chainEnd, err error) {
	segs, err := listSegments(dir)
	if err != nil {
		return end, err
	}
	end.seq = 1
	for i, se := range segs {
		if se.seq != end.seq {
			return end, corruptf(se.name, 8, "segment sequence %d, chain expects %d: %s is missing", se.seq, end.seq, segName(end.seq))
		}
		l := link{segEntry: se, prevRoot: end.root, final: i == len(segs)-1}
		if err := l.walk(dir, visit); err != nil {
			return end, err
		}
		if l.sealed {
			end.seq, end.root = se.seq+1, l.seal.root
		}
	}
	return end, nil
}

// walk maps the link's segment, checks its header and footer against
// the chain, and hands it to visit.
func (l *link) walk(dir string, visit func(*link) error) error {
	m, err := trace.OpenMapping(filepath.Join(dir, l.name))
	if err != nil {
		return fmt.Errorf("store: map %s: %w", l.name, err)
	}
	l.data = m.Data()
	err = l.check()
	if err == nil {
		err = visit(l)
	}
	l.data = nil
	cerr := m.Close()
	if err != nil {
		return err
	}
	if cerr != nil {
		return fmt.Errorf("store: unmap %s: %w", l.name, cerr)
	}
	return nil
}

// check reads the link's header and footer.
func (l *link) check() error {
	if l.final && len(l.data) < headerLen {
		return nil // torn creation
	}
	seq, prevRoot, err := parseHeader(l.name, l.data)
	if err != nil {
		return err
	}
	if seq != l.seq {
		return corruptf(l.name, 8, "header sequence %d does not match file name", seq)
	}
	if prevRoot != l.prevRoot {
		return corruptf(l.name, 16, "chain broken: header prevRoot does not match predecessor root")
	}
	if l.seal, l.sealed = footer(l.data); !l.sealed && !l.final {
		return corruptf(l.name, max(int64(len(l.data))-sealFrameLen, headerLen), "unsealed segment before end of chain")
	}
	return nil
}

// scan walks the link's records. A tail may end torn — st.torn names
// the tear and st.validLen the prefix that survives it — unless the
// tear follows a seal. A sealed link must scan clean to its footer:
// a sealed segment is never written again, so damage in one is
// corruption, not a torn write.
func (l *link) scan(collectLeaves bool, fn func(Record) error) (scanState, error) {
	st, err := scanSegment(l.name, l.seq, l.data, collectLeaves, fn)
	switch {
	case err != nil:
		return st, err
	case (l.sealed || st.sealed) && st.torn != nil:
		return st, st.torn
	case l.sealed && !st.sealed:
		return st, corruptf(l.name, int64(len(l.data))-sealFrameLen, "seal footer is not on a frame boundary")
	}
	return st, nil
}

// verify recomputes a sealed link against its seal: every frame CRC,
// the record count and time bounds, and the chain root.
func (l *link) verify() error {
	st, err := l.scan(true, nil)
	if err != nil {
		return err
	}
	if st.seal.records != st.records {
		return corruptf(l.name, st.sealOff, "seal claims %d records, segment holds %d", st.seal.records, st.records)
	}
	if st.records > 0 && (st.seal.firstUS != st.firstUS || st.seal.lastUS != st.lastUS) {
		return corruptf(l.name, st.sealOff, "seal time bounds do not match records")
	}
	if chainRoot(l.prevRoot, merkleRoot(st.leaves), l.seq) != st.seal.root {
		return corruptf(l.name, st.sealOff, "seal root does not match recomputed Merkle chain root")
	}
	return nil
}
