package store

import (
	"fmt"
	"math"
	"path/filepath"

	"netsample/internal/collect"
	"netsample/internal/trace"
)

// SegmentInfo describes one segment as seen at OpenReader time.
type SegmentInfo struct {
	Seq     uint64
	Name    string
	Sealed  bool
	Records uint64
	FirstUS int64 // min record timestamp (valid when Records > 0)
	LastUS  int64 // max record timestamp (valid when Records > 0)
}

// Reader answers replay and time-range queries from a store directory.
// It is a point-in-time view: the segment list and bounds are captured
// at OpenReader, so records appended afterwards need a fresh Reader.
// Segment bodies are mapped read-only per query through the shared
// trace.Mapping lifecycle, so a query touches only the pages its
// records live on.
//
// A Reader accepts exactly the stores Open accepts (both read the
// chain through walkChain): a torn tail is ignored and its valid prefix
// replays; damage anywhere else is an error — use Verify for the strict
// full-chain check.
type Reader struct {
	dir  string
	segs []SegmentInfo
}

// OpenReader walks the directory's segment chain, scanning each body
// for its record count and time bounds, and returns a reader over the
// durable record sequence.
func OpenReader(dir string) (*Reader, error) {
	r := &Reader{dir: dir}
	_, err := walkChain(dir, func(l *link) error {
		if len(l.data) < headerLen {
			return nil // a torn creation holds no record
		}
		st, err := l.scan(false, nil)
		if err != nil {
			return err
		}
		r.segs = append(r.segs, SegmentInfo{
			Seq:     l.seq,
			Name:    l.name,
			Sealed:  l.sealed,
			Records: st.records,
			FirstUS: st.firstUS,
			LastUS:  st.lastUS,
		})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return r, nil
}

// Segments returns the segment summaries in chain order.
//
//nslint:allow unreached store on-disk surface: the segment chain a reader accepted, what the store and nocquery tests audit
func (r *Reader) Segments() []SegmentInfo { return r.segs }

// Bounds returns the min and max record timestamps across the store,
// ok=false when the store holds no records.
func (r *Reader) Bounds() (firstUS, lastUS int64, ok bool) {
	for _, si := range r.segs {
		if si.Records == 0 {
			continue
		}
		if !ok {
			firstUS, lastUS, ok = si.FirstUS, si.LastUS, true
			continue
		}
		if si.FirstUS < firstUS {
			firstUS = si.FirstUS
		}
		if si.LastUS > lastUS {
			lastUS = si.LastUS
		}
	}
	return firstUS, lastUS, ok
}

// Replay invokes fn for every record in append order. The Record's
// payload aliases the mapped segment and is valid only inside fn.
func (r *Reader) Replay(fn func(Record) error) error {
	return r.Query(math.MinInt64, math.MaxInt64, fn)
}

// Query invokes fn for every record whose timestamp lies in the
// inclusive range [fromUS, toUS], in append order. Segments whose
// sealed bounds fall outside the range are skipped without touching
// their bodies.
func (r *Reader) Query(fromUS, toUS int64, fn func(Record) error) error {
	for _, si := range r.segs {
		if si.Records == 0 || si.LastUS < fromUS || si.FirstUS > toUS {
			continue
		}
		if err := r.scanOne(si, fromUS, toUS, fn); err != nil {
			return err
		}
	}
	return nil
}

// scanOne maps one segment and streams its in-range records.
func (r *Reader) scanOne(si SegmentInfo, fromUS, toUS int64, fn func(Record) error) error {
	m, err := trace.OpenMapping(filepath.Join(r.dir, si.Name))
	if err != nil {
		return fmt.Errorf("store: map %s: %w", si.Name, err)
	}
	_, serr := scanSegment(si.Name, si.Seq, m.Data(), false, func(rec Record) error {
		if rec.TimeUS < fromUS || rec.TimeUS > toUS {
			return nil
		}
		return fn(rec)
	})
	cerr := m.Close()
	if serr != nil {
		return serr
	}
	if cerr != nil {
		return fmt.Errorf("store: unmap %s: %w", si.Name, cerr)
	}
	return nil
}

// EachSnapshot decodes every KindSnapshot record in the inclusive range
// [fromUS, toUS] (record timestamps are snapshot window ends) and hands
// each to fn in append order, so a caller folding a range holds one
// decoded window at a time. Each snapshot owns its memory — nothing
// aliases the store. A payload that does not decode stops the scan with
// a CorruptionError naming its segment and offset; fn's error stops it
// too and is returned as is.
func (r *Reader) EachSnapshot(fromUS, toUS int64, fn func(*collect.Snapshot) error) error {
	return r.Query(fromUS, toUS, func(rec Record) error {
		if rec.Kind != KindSnapshot {
			return nil
		}
		s, err := collect.DecodeSnapshot(rec.Payload)
		if err != nil {
			return corruptf(segName(rec.Segment), rec.Offset, "snapshot payload rejected: %v", err)
		}
		return fn(s)
	})
}

// Snapshots collects EachSnapshot's range into one slice.
func (r *Reader) Snapshots(fromUS, toUS int64) ([]*collect.Snapshot, error) {
	var out []*collect.Snapshot
	err := r.EachSnapshot(fromUS, toUS, func(s *collect.Snapshot) error {
		out = append(out, s)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
