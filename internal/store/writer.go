package store

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"netsample/internal/collect"
)

// Write-path defaults.
const (
	// DefaultSyncEvery is the group-commit batch: one fsync absorbs this
	// many appends.
	DefaultSyncEvery = 64
	// DefaultSyncWindowUS bounds how far the virtual clock may advance
	// past the last synced record before an fsync is forced, so a slow
	// trickle of snapshots still reaches disk once per (virtual) second.
	DefaultSyncWindowUS = 1_000_000
	// DefaultSegmentRecords is the seal-and-rotate threshold.
	DefaultSegmentRecords = 1024
)

// Options tune the write path. Zero values select the defaults above.
type Options struct {
	// SyncEvery batches fsyncs: the file is flushed and synced once per
	// this many appends. 1 syncs every append.
	SyncEvery int
	// SyncWindowUS also forces a sync when a record's virtual-clock
	// timestamp is at least this far past the last synced record.
	// Negative disables the clock trigger entirely.
	SyncWindowUS int64
	// SegmentRecords seals the active segment and rotates to the next
	// once it holds this many records.
	SegmentRecords int
}

func (o Options) withDefaults() Options {
	if o.SyncEvery <= 0 {
		o.SyncEvery = DefaultSyncEvery
	}
	if o.SyncWindowUS == 0 {
		o.SyncWindowUS = DefaultSyncWindowUS
	}
	if o.SegmentRecords <= 0 {
		o.SegmentRecords = DefaultSegmentRecords
	}
	return o
}

// Writer appends records to a store directory. Appends accumulate in an
// in-memory frame buffer that is flushed and fsynced as a group — after
// Options.SyncEvery appends or when the virtual clock advances past
// Options.SyncWindowUS — so the fsync cost amortizes over the batch
// (the group-commit pattern of audit-log batchers). A record is durable
// once the sync that covers it returns; a crash loses at most the
// un-synced suffix, which recovery truncates as a torn tail.
//
// The first create, write, sync or seal failure is final, as in
// bufio.Writer: every later Append, AppendSnapshot, Sync and Close
// returns it without touching the file, so the disk holds the synced
// prefix plus at most one torn tail. The Writer counts every window it
// did not persist (each refused append, and each record of the group a
// failed flush took with it), and Close reports the count.
//
// Writer is safe for concurrent use; one mutex serializes appends. A
// directory must have at most one live Writer (segment files are
// created O_EXCL, so a second writer fails fast on rotation).
type Writer struct {
	mu     sync.Mutex
	dir    string
	opts   Options
	closed bool

	f    *os.File // active (unsealed) segment; nil until first append
	name string   // active segment file name

	seq      uint64   // active (or next) segment sequence
	prevRoot [32]byte // chain root of the last sealed segment

	buf     []byte     // frames appended since the last flush
	leaves  [][32]byte // frame hashes of the active segment's records
	records uint64
	firstUS int64 // min record time in the active segment
	lastUS  int64 // max record time in the active segment

	pending    int   // appends since the last sync
	syncedUS   int64 // virtual clock at the last sync
	haveSyncUS bool

	err   error // the first I/O failure; final
	lost  int   // windows not persisted
	first error // the cause of the first lost window

	// scratch is AppendSnapshot's encode buffer, reused from snapshot to
	// snapshot: Append copies a payload into buf before it returns.
	// encMu guards it and is taken before mu, never while holding it.
	encMu   sync.Mutex
	scratch []byte
}

// Open opens (creating if needed) the store directory for appending.
// It reads the chain as Verify and OpenReader do (walkChain), so it
// refuses every store they refuse, and then repairs only the tail:
//
//   - a tail shorter than its 64-byte header is a torn creation — it
//     can hold no records, so it is removed;
//   - a torn tail record (truncated frame, CRC mismatch) is truncated
//     back to the last valid frame boundary — never silently accepted;
//   - a final segment that ends in its seal is checked against that
//     seal and refused on a mismatch, never truncated; the writer
//     continues the chain in a fresh segment;
//   - a tail that already holds SegmentRecords records is sealed.
//
// The recovered writer resumes exactly where the durable prefix ended:
// a reopened store replays bit-identically to what was synced.
func Open(dir string, opts Options) (*Writer, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: open: %w", err)
	}
	var (
		tail string
		st   scanState
	)
	end, err := walkChain(dir, func(l *link) error {
		if !l.final {
			return nil
		}
		if l.sealed {
			return l.verify()
		}
		tail = l.name
		var err error
		st, err = l.scan(true, nil)
		return err
	})
	if err != nil {
		return nil, err
	}
	w := &Writer{dir: dir, opts: opts.withDefaults(), seq: end.seq, prevRoot: end.root}
	if tail != "" {
		if err := w.resumeTail(tail, st); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// resumeTail repairs the tail segment the walk scanned into st and
// leaves the writer appending to it.
func (w *Writer) resumeTail(name string, st scanState) error {
	path := filepath.Join(w.dir, name)
	if st.validLen < headerLen {
		// Torn creation: the header never fully reached disk, so no
		// record was ever appended, let alone synced. Remove the husk
		// and let the next append recreate the segment.
		if err := os.Remove(path); err != nil {
			return fmt.Errorf("store: recover %s: %w", name, err)
		}
		return syncDir(w.dir)
	}
	if st.torn != nil {
		// Torn tail: drop the damaged suffix, keep every intact record.
		if err := os.Truncate(path, st.validLen); err != nil {
			return fmt.Errorf("store: truncate torn tail of %s: %w", name, err)
		}
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return fmt.Errorf("store: reopen %s: %w", name, err)
	}
	if st.torn != nil {
		// Make the truncation durable before anything is appended after
		// the cut point.
		if err := f.Sync(); err != nil {
			cerr := f.Close()
			return errors.Join(fmt.Errorf("store: sync truncated %s: %w", name, err), cerr)
		}
	}
	w.f = f
	w.name = name
	w.leaves = st.leaves
	w.records = st.records
	w.firstUS = st.firstUS
	w.lastUS = st.lastUS
	w.syncedUS = st.lastUS
	w.haveSyncUS = st.records > 0
	if w.records >= uint64(w.opts.SegmentRecords) {
		// A crash between a full segment's last sync and its seal: seal
		// it now, so the next append opens the segment it would have.
		return w.sealLocked()
	}
	return nil
}

// Append adds one record. kind must be a data kind (KindSnapshot, or
// an application kind below 0xFF); timeUS is the
// record's virtual-clock timestamp, by which queries filter. The record
// is durable once the covering group sync has run (see Writer).
//
//nslint:hotpath
func (w *Writer) Append(kind uint8, timeUS int64, payload []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	// A refusal — after the writer's I/O failure, of a malformed record,
	// or by a segment create that fails — is a window not persisted.
	err := w.err
	switch {
	case err != nil:
	case kind == kindSeal || kind == 0:
		//nslint:allow hotalloc error path: rejected before any state changes
		err = fmt.Errorf("store: reserved record kind %#x", kind)
	case len(payload) > maxRecordPayload:
		//nslint:allow hotalloc error path: rejected before any state changes
		err = fmt.Errorf("store: record payload %d exceeds limit %d", len(payload), maxRecordPayload)
	case w.f == nil:
		err = w.create()
		w.err = err
	}
	if err != nil {
		w.lose(1, err)
		return err
	}
	start := len(w.buf)
	w.buf = appendFrame(w.buf, kind, timeUS, payload)
	//nslint:allow hotalloc amortized: leaf slice retains capacity across segments (reset by re-slicing at seal)
	w.leaves = append(w.leaves, sha256.Sum256(w.buf[start:]))
	if w.records == 0 {
		w.firstUS, w.lastUS = timeUS, timeUS
	} else if timeUS < w.firstUS {
		w.firstUS = timeUS
	} else if timeUS > w.lastUS {
		w.lastUS = timeUS
	}
	w.records++
	w.pending++
	if !w.haveSyncUS {
		w.syncedUS, w.haveSyncUS = timeUS, true
	}
	if w.pending >= w.opts.SyncEvery ||
		(w.opts.SyncWindowUS > 0 && timeUS-w.syncedUS >= w.opts.SyncWindowUS) {
		if err := w.flushSync(); err != nil {
			return w.fail(err)
		}
	}
	if w.records >= uint64(w.opts.SegmentRecords) {
		if err := w.sealLocked(); err != nil {
			return w.fail(err)
		}
	}
	return nil
}

// AppendSnapshot encodes s to its canonical wire payload and appends it
// as a KindSnapshot record stamped with the snapshot's window end —
// byte-for-byte the payload a live TypeSnapshot frame would carry, which
// is what makes a replayed store bit-identical to the live export. The
// payload is encoded into the writer's own scratch buffer. A snapshot
// that does not encode is refused, and counted, with its encode error.
func (w *Writer) AppendSnapshot(s *collect.Snapshot) error {
	w.encMu.Lock()
	defer w.encMu.Unlock()
	var err error
	if w.scratch, err = collect.AppendSnapshot(w.scratch[:0], s); err != nil {
		w.mu.Lock()
		defer w.mu.Unlock()
		w.lose(1, err)
		return err
	}
	return w.Append(KindSnapshot, s.WindowEndUS, w.scratch)
}

// fail makes err the writer's final state. The records of the unsynced
// group are lost with it.
func (w *Writer) fail(err error) error {
	w.err = err
	w.lose(w.pending, err)
	return err
}

// lose counts n windows not persisted, for cause err.
func (w *Writer) lose(n int, err error) {
	if w.lost == 0 && n > 0 {
		w.first = err
	}
	w.lost += n
}

// Sync forces the pending group to disk immediately.
func (w *Writer) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	if w.err != nil || w.f == nil {
		return w.err
	}
	if err := w.flushSync(); err != nil {
		return w.fail(err)
	}
	return nil
}

// Close flushes and syncs pending records and releases the active
// segment without sealing it, so a reopened Writer resumes appending to
// the same segment. It reports the writer's I/O failure and, when any
// window was not persisted, how many and the first cause. Closing twice
// is safe.
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	if w.f != nil {
		if w.err == nil {
			if err := w.flushSync(); err != nil {
				_ = w.fail(err)
			}
		}
		if err := w.f.Close(); err != nil && w.err == nil {
			_ = w.fail(fmt.Errorf("store: close %s: %w", w.name, err))
		}
		w.f = nil
	}
	if w.lost == 0 {
		return w.err
	}
	err := fmt.Errorf("store: %d window(s) not persisted, first: %w", w.lost, w.first)
	if w.err != nil && !errors.Is(err, w.err) {
		err = errors.Join(err, w.err)
	}
	return err
}

// create opens the next segment file with its header written and
// synced, so the chain link (prevRoot) is durable before any record.
//
//nslint:coldpath runs once per segment; its allocations amortize over the segment's records
func (w *Writer) create() error {
	name := segName(w.seq)
	path := filepath.Join(w.dir, name)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("store: create segment: %w", err)
	}
	hdr := appendHeader(nil, w.seq, w.prevRoot)
	if _, err := f.Write(hdr); err != nil {
		cerr := f.Close()
		return errors.Join(fmt.Errorf("store: write header %s: %w", name, err), cerr)
	}
	if err := f.Sync(); err != nil {
		cerr := f.Close()
		return errors.Join(fmt.Errorf("store: sync header %s: %w", name, err), cerr)
	}
	if err := syncDir(w.dir); err != nil {
		cerr := f.Close()
		return errors.Join(err, cerr)
	}
	w.f = f
	w.name = name
	w.buf = w.buf[:0]
	w.leaves = w.leaves[:0]
	w.records = 0
	w.firstUS, w.lastUS = 0, 0
	w.pending = 0
	w.haveSyncUS = false
	return nil
}

// sealLocked writes the seal footer for the active segment, syncs, and
// rotates. No-op without an active segment or records.
//
//nslint:coldpath runs once per segment; its allocations amortize over the segment's records
func (w *Writer) sealLocked() error {
	if w.f == nil || w.records == 0 {
		return nil
	}
	root := chainRoot(w.prevRoot, merkleRoot(w.leaves), w.seq)
	seal := sealInfo{records: w.records, firstUS: w.firstUS, lastUS: w.lastUS, root: root}
	var payload [sealLen]byte
	w.buf = appendFrame(w.buf, kindSeal, w.lastUS, appendSealPayload(payload[:0], seal))
	if err := w.flushSync(); err != nil {
		return err
	}
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("store: close sealed %s: %w", w.name, err)
	}
	w.f = nil
	w.prevRoot = root
	w.seq++
	w.leaves = w.leaves[:0]
	w.records = 0
	return nil
}

// flushSync writes the buffered frames and fsyncs the segment — one
// group commit.
//
//nslint:coldpath runs once per sync group; its cost amortizes over SyncEvery appends
func (w *Writer) flushSync() error {
	if len(w.buf) > 0 {
		if _, err := w.f.Write(w.buf); err != nil {
			return fmt.Errorf("store: write %s: %w", w.name, err)
		}
		w.buf = w.buf[:0]
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("store: sync %s: %w", w.name, err)
	}
	w.pending = 0
	w.syncedUS = w.lastUS
	return nil
}

// syncDir fsyncs the store directory, making segment creation and
// removal durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("store: open dir: %w", err)
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		return fmt.Errorf("store: sync dir: %w", serr)
	}
	if cerr != nil {
		return fmt.Errorf("store: close dir: %w", cerr)
	}
	return nil
}
