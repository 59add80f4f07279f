// Package store implements the segmented on-disk sign dictionary: the
// version-2 persistence format for the SAX reference database, built for
// million-entry dictionaries that the version-1 JSON file (internal/sax
// Save/Load) cannot serve — v1 must re-parse and re-verify every entry on
// every open, while this store memory-maps immutable segment files and is
// ready to serve lookups as soon as the cheap structural validation passes.
//
// A store directory holds three kinds of file:
//
//   - sealed segments (seg-NNNNNN.seg): immutable, mmap-able columnar files
//     carrying the label table, SAX words, z-normalised series and a
//     precomputed per-entry symbol-histogram block, so the degraded mode's
//     histogram lower bound runs directly over mapped memory with zero
//     per-lookup allocation;
//   - a write-ahead log (wal.log): length-prefixed, checksummed Add records;
//     recovery truncates a torn tail and replays the rest into the in-memory
//     tail;
//   - a manifest (MANIFEST.json): the commit point naming the live segments;
//     swapped atomically (tmp + fsync + rename) by compaction.
//
// Lookups run the same two-stage cascade as the in-memory Database —
// sax.CascadeLookupKZ over sealed segments plus the in-memory tail — and
// return bit-identical results for the same insertion sequence. The
// cascade's per-entry spectra are derived from a segment's mapped series on
// its first lookup, not stored in the file. Compaction folds the tail into
// a new sealed segment in the background; readers are never blocked and
// retired mappings stay valid until Close.
//
// The binary format is little-endian and served zero-copy via unsafe views,
// so store directories are portable across the little-endian hosts this
// project targets but not to big-endian ones.
package store

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"hdc/internal/failpoint"
	"hdc/internal/sax"
	"hdc/internal/timeseries"
)

// Typed failure classes for a damaged store directory. Every decode path
// returns one of these (wrapped with detail) rather than panicking, no
// matter how the bytes were mangled — the fuzz target holds that line.
var (
	// ErrCorruptSegment reports a segment file whose structure or checksums
	// are invalid.
	ErrCorruptSegment = errors.New("store: corrupt segment")
	// ErrCorruptManifest reports an unreadable or inconsistent manifest.
	ErrCorruptManifest = errors.New("store: corrupt manifest")
	// ErrCorruptWAL reports a write-ahead log damaged beyond the torn tail
	// that recovery repairs silently.
	ErrCorruptWAL = errors.New("store: corrupt write-ahead log")
	// ErrMissingSegment reports a manifest-referenced segment file that does
	// not exist.
	ErrMissingSegment = errors.New("store: missing segment file")
	// ErrClosed reports use of a closed store.
	ErrClosed = errors.New("store: closed")
)

// Options tune an opened store. The zero value is valid: no automatic
// compaction, buffered (non-fsynced) appends.
type Options struct {
	// CompactEvery, when positive, triggers a background compaction each
	// time the in-memory tail reaches this many entries.
	CompactEvery int
	// SyncWrites fsyncs the write-ahead log after every Add, trading append
	// latency for zero-loss durability of acknowledged entries.
	SyncWrites bool
}

// Store is an open segmented dictionary directory. Lookups and Adds are safe
// to call concurrently (including during a background compaction); Close
// must only be called once no lookup is in flight, because it unmaps the
// segment memory lookups read through.
type Store struct {
	dir  string
	enc  *sax.Encoder
	p    segParams
	opts Options
	spec timeseries.SpecTable // computes entry spectra for the tail and segments

	// mu guards the mutable view of the store. Lookups take a snapshot of
	// segs/tail under RLock and then read lock-free: both are effectively
	// immutable (segments always; the tail's backing array is append-only,
	// and compaction re-slices rather than rewrites). The tail holds
	// not-yet-sealed entries in seq order, laid out exactly like a
	// sax.Database's entries.
	mu        sync.RWMutex
	segs      []*segment
	tail      []sax.Entry
	sealed    int // total entries across segs
	nextSeq   uint64
	shiftFrac float64
	w         *wal
	failed    error // sticky post-commit failure; nil when healthy
	closed    bool

	// compactMu serialises compactions and every manifest write; Close takes
	// it to drain an in-flight background compaction.
	compactMu  sync.Mutex
	mf         manifest
	retired    []*segment // replaced by compaction; unmapped at Close
	compacting atomic.Bool
	compactErr atomic.Pointer[string]

	// renameFn is os.Rename in production; crash tests inject failures at
	// the atomic-swap points through it.
	renameFn func(old, new string) error

	viewPool sync.Pool
}

// Store implements the dictionary surface the recogniser programs against.
var _ sax.Dictionary = (*Store)(nil)

// Create initialises an empty store in dir (created if absent; must not
// already contain a store) for signatures of length seriesLen symbolised by
// enc, and opens it.
func Create(dir string, enc *sax.Encoder, seriesLen int, opts Options) (*Store, error) {
	if enc == nil {
		return nil, errors.New("store: nil encoder")
	}
	if seriesLen < enc.Segments() {
		return nil, fmt.Errorf("store: series length %d below word length %d", seriesLen, enc.Segments())
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if _, err := os.Stat(filepath.Join(dir, manifestName)); err == nil {
		return nil, fmt.Errorf("store: %s already contains a store", dir)
	}
	mf := &manifest{
		Version:   storeVersion,
		WordLen:   enc.Segments(),
		Alphabet:  enc.AlphabetSize(),
		SeriesLen: seriesLen,
		NextSeq:   1,
		NextSegID: 1,
	}
	if err := writeManifest(dir, mf, os.Rename); err != nil {
		return nil, err
	}
	return Open(dir, opts)
}

// Open opens the store in dir: the manifest is loaded, every referenced
// segment is mapped and structurally validated, orphaned files from an
// interrupted compaction are removed, and the write-ahead log is replayed
// (truncating a torn tail) into the in-memory tail.
func Open(dir string, opts Options) (*Store, error) {
	mf, err := loadManifest(dir)
	if err != nil {
		return nil, err
	}
	p := mf.params()
	enc, err := sax.NewEncoder(mf.WordLen, mf.Alphabet)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorruptManifest, err)
	}

	s := &Store{
		dir:       dir,
		enc:       enc,
		p:         p,
		opts:      opts,
		spec:      timeseries.NewSpecTable(p.seriesLen),
		nextSeq:   mf.NextSeq,
		shiftFrac: mf.ShiftFrac,
		mf:        *mf,
		renameFn:  os.Rename,
	}
	s.viewPool.New = func() any { return &lookupView{} }

	ok := false
	defer func() {
		if !ok {
			for _, sg := range s.segs {
				_ = sg.close()
			}
		}
	}()
	for _, ms := range mf.Segments {
		sg, err := openSegment(filepath.Join(dir, ms.File), p)
		if err != nil {
			return nil, err
		}
		if sg.count != ms.Entries || sg.baseSeq != ms.BaseSeq || sg.bodyCRC != ms.CRC {
			_ = sg.close()
			return nil, corrupt(ms.File, "segment header disagrees with manifest")
		}
		s.segs = append(s.segs, sg)
		s.sealed += sg.count
	}
	removeOrphans(dir, mf)

	recs, _, err := replayWAL(dir, p, mf.NextSeq)
	if err != nil {
		return nil, err
	}
	for i, r := range recs {
		if r.seq != mf.NextSeq+uint64(i) {
			return nil, fmt.Errorf("%w: log record sequence %d breaks the run at %d",
				ErrCorruptWAL, r.seq, mf.NextSeq+uint64(i))
		}
		s.tail = append(s.tail, sax.NewEntry(&s.spec, r.seq, r.label, sax.Word{Symbols: r.word, Alphabet: p.alphabet}, r.series))
		s.nextSeq = r.seq + 1
	}
	w, err := openWAL(dir, opts.SyncWrites)
	if err != nil {
		return nil, err
	}
	s.w = w
	ok = true
	return s, nil
}

// removeOrphans deletes files a crashed compaction left behind: anything
// *.tmp, and segment files the manifest does not reference (the manifest
// swap is the commit point, so an unreferenced segment never became live).
func removeOrphans(dir string, mf *manifest) {
	live := make(map[string]bool, len(mf.Segments))
	for _, ms := range mf.Segments {
		live[ms.File] = true
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, de := range entries {
		name := de.Name()
		if de.IsDir() {
			continue
		}
		orphanSeg := filepath.Ext(name) == ".seg" && !live[name]
		if orphanSeg || filepath.Ext(name) == ".tmp" {
			_ = os.Remove(filepath.Join(dir, name))
		}
	}
}

// Encoder returns the store's SAX encoder.
func (s *Store) Encoder() *sax.Encoder { return s.enc }

// SeriesLen returns the canonical signature length.
func (s *Store) SeriesLen() int { return s.p.seriesLen }

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// Len returns the number of entries (sealed + tail).
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.sealed + len(s.tail)
}

// SetShiftWindowFrac restricts the rotation-alignment search exactly as
// Database.SetShiftWindowFrac does. The value is persisted into the manifest
// by the next compaction.
func (s *Store) SetShiftWindowFrac(frac float64) {
	s.mu.Lock()
	s.shiftFrac = frac
	s.mu.Unlock()
}

// windows snapshots the rotation-window bounds (-1 = unbounded).
func (s *Store) windows() (wordWin, seriesWin int) {
	s.mu.RLock()
	frac := s.shiftFrac
	s.mu.RUnlock()
	return sax.ShiftWindows(frac, s.p.wordLen, s.p.seriesLen)
}

// Add registers a labelled reference series: resampled to the canonical
// length, z-normalised, encoded, appended to the write-ahead log and to the
// in-memory tail. The entry is immediately visible to lookups; it becomes
// part of a sealed segment at the next compaction.
func (s *Store) Add(label string, series timeseries.Series) error {
	if label == "" {
		return errors.New("store: empty label")
	}
	rs, err := series.ResampleLinear(s.p.seriesLen)
	if err != nil {
		return fmt.Errorf("store: add %q: %w", label, err)
	}
	z := rs.ZNormalize()
	w, err := s.enc.Encode(z)
	if err != nil {
		return fmt.Errorf("store: add %q: %w", label, err)
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	if s.failed != nil {
		err := s.failed
		s.mu.Unlock()
		return fmt.Errorf("store: unusable after earlier failure: %w", err)
	}
	seq := s.nextSeq
	err = failpoint.Inject(failpoint.StoreWALAppend)
	if err == nil {
		err = s.w.append(seq, label, w.Symbols, z)
	}
	if err != nil {
		// A partial record may now sit at the log's end. Appending after it
		// would bury acknowledged records behind a tear that recovery
		// truncates, so the store goes read-only instead.
		s.failed = err
		s.mu.Unlock()
		return fmt.Errorf("store: log append: %w", err)
	}
	s.nextSeq = seq + 1
	s.tail = append(s.tail, sax.NewEntry(&s.spec, seq, label, w, z))
	tailLen := len(s.tail)
	s.mu.Unlock()

	if ce := s.opts.CompactEvery; ce > 0 && tailLen >= ce && s.compacting.CompareAndSwap(false, true) {
		go func() {
			defer s.compacting.Store(false)
			if err := s.Compact(); err != nil && !errors.Is(err, ErrClosed) {
				msg := err.Error()
				s.compactErr.Store(&msg)
			}
		}()
	}
	return nil
}

// Compact seals the current in-memory tail into a new segment: the segment
// file is written and fsynced, the manifest is atomically swapped to
// reference it (the commit point), and the write-ahead log is rewritten to
// hold only entries appended after the seal. Lookups proceed throughout.
// Compact is a no-op on an empty tail.
func (s *Store) Compact() error { return s.compact(false) }

// CompactFull folds every sealed segment and the tail into a single segment
// — the defragmentation pass after many incremental compactions. Replaced
// segment files are unlinked once the new manifest is live; their mappings
// stay valid for in-flight lookups until Close.
func (s *Store) CompactFull() error { return s.compact(true) }

func (s *Store) compact(full bool) error {
	s.compactMu.Lock()
	defer s.compactMu.Unlock()

	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return ErrClosed
	}
	if s.failed != nil {
		err := s.failed
		s.mu.RUnlock()
		return fmt.Errorf("store: unusable after earlier failure: %w", err)
	}
	segs := s.segs
	tail := s.tail
	shiftFrac := s.shiftFrac
	s.mu.RUnlock()

	n := len(tail)
	if n == 0 && (!full || len(segs) <= 1) {
		return nil // nothing to seal, nothing to merge
	}

	// Assemble the source and the resulting manifest segment list.
	var (
		src     segmentSource
		baseSeq uint64
		keep    []manifestSegment
		retire  []*segment
	)
	if full {
		srcs := make([]segmentSource, 0, len(segs)+1)
		for _, sg := range segs {
			srcs = append(srcs, sg.source())
		}
		srcs = append(srcs, tailSource(tail))
		src = concatSources(srcs)
		baseSeq = 1
		retire = segs
	} else {
		src = tailSource(tail)
		baseSeq = s.mf.NextSeq
		keep = append(keep, s.mf.Segments...)
	}

	segID := s.mf.NextSegID
	name := fmt.Sprintf("seg-%06d.seg", segID)
	tmp := filepath.Join(s.dir, name+".tmp")
	crc, err := writeSegment(tmp, s.p, baseSeq, src)
	if err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("store: compact: %w", err)
	}
	final := filepath.Join(s.dir, name)
	renameErr := failpoint.Inject(failpoint.StoreCompactRename)
	if renameErr == nil {
		renameErr = s.renameFn(tmp, final)
	}
	if renameErr != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("store: compact: %w", renameErr)
	}
	if err := syncDir(s.dir); err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}

	mf := s.mf
	mf.Segments = append(keep, manifestSegment{File: name, Entries: src.count(), BaseSeq: baseSeq, CRC: crc})
	mf.NextSeq = baseSeq
	for _, ms := range mf.Segments {
		if ms.BaseSeq+uint64(ms.Entries) > mf.NextSeq {
			mf.NextSeq = ms.BaseSeq + uint64(ms.Entries)
		}
	}
	mf.NextSegID = segID + 1
	mf.ShiftFrac = shiftFrac
	if err := writeManifest(s.dir, &mf, s.renameFn); err != nil {
		_ = os.Remove(final)
		return fmt.Errorf("store: compact: %w", err)
	}
	// The manifest swap committed. Any failure past this point leaves disk
	// ahead of memory, so it marks the store failed rather than pretending
	// to roll back; a reopen recovers cleanly.

	sg, err := openSegment(final, s.p)
	if err != nil {
		return s.fail(fmt.Errorf("store: compact: reopening sealed segment: %w", err))
	}

	s.mu.Lock()
	remaining := s.tail[n:]
	recs := make([]walRecord, len(remaining))
	for i := range remaining {
		e := &remaining[i]
		recs[i] = walRecord{seq: e.Seq(), label: e.Label, word: e.Word.Symbols, series: e.Series}
	}
	if err := rewriteWAL(s.dir, recs, s.opts.SyncWrites, s.renameFn); err != nil {
		s.failed = err
		s.mu.Unlock()
		return fmt.Errorf("store: compact: rewriting log: %w", err)
	}
	oldW := s.w
	w, err := openWAL(s.dir, s.opts.SyncWrites)
	if err != nil {
		s.failed = err
		s.mu.Unlock()
		return fmt.Errorf("store: compact: reopening log: %w", err)
	}
	s.w = w
	if full {
		s.segs = []*segment{sg}
	} else {
		s.segs = append(append([]*segment(nil), s.segs...), sg)
	}
	s.sealed = 0
	for _, g := range s.segs {
		s.sealed += g.count
	}
	s.tail = remaining
	s.mf = mf
	s.mu.Unlock()
	_ = oldW.close()

	// Retired segments: files go now (the mapping keeps serving in-flight
	// lookups; on unix an unlinked mapped file stays readable), mappings at
	// Close.
	s.retired = append(s.retired, retire...)
	for _, ms := range retireNames(retire) {
		_ = os.Remove(filepath.Join(s.dir, ms))
	}
	return nil
}

// retireNames lists the file names of retired segments.
func retireNames(segs []*segment) []string {
	names := make([]string, len(segs))
	for i, sg := range segs {
		names[i] = filepath.Base(sg.file)
	}
	return names
}

// fail marks the store unusable for writes after a post-commit error.
func (s *Store) fail(err error) error {
	s.mu.Lock()
	s.failed = err
	s.mu.Unlock()
	return err
}

// ReadOnly reports whether the store has gone sticky read-only after a
// write failure (WAL append, post-commit compaction step), along with the
// error that tripped it. Lookups keep working; Add and Compact refuse. The
// server's readiness endpoint and /statsz surface this so a degraded store
// is visible to operators, not just to the caller whose Add failed.
func (s *Store) ReadOnly() (bool, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.failed != nil, s.failed
}

// Close releases the store: it drains any in-flight background compaction,
// closes the log and unmaps every segment (including ones retired by
// compaction). No lookup may be in flight.
func (s *Store) Close() error {
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	segs := s.segs
	retired := s.retired
	w := s.w
	s.mu.Unlock()

	var first error
	if w != nil {
		first = w.close()
	}
	for _, sg := range append(retired, segs...) {
		if err := sg.close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// CheckIntegrity recomputes the body checksum of every sealed segment — the
// deep verification Open deliberately skips to stay fast.
func (s *Store) CheckIntegrity() error {
	s.mu.RLock()
	segs := s.segs
	s.mu.RUnlock()
	for _, sg := range segs {
		if err := sg.checkIntegrity(); err != nil {
			return err
		}
	}
	return nil
}

// tailSource adapts the in-memory tail to the segment writer.
type tailSource []sax.Entry

func (t tailSource) count() int { return len(t) }
func (t tailSource) entry(i int) (string, string, []uint16, []float64) {
	e := &t[i]
	return e.Label, e.Word.Symbols, e.Hist(), e.Series
}

// concatSources chains sources in order (compaction's merged view: sealed
// segments in manifest order, then the tail — already globally seq-ordered).
func concatSources(srcs []segmentSource) segmentSource {
	cs := &concatSource{srcs: srcs, starts: make([]int, len(srcs)+1)}
	for i, src := range srcs {
		cs.starts[i+1] = cs.starts[i] + src.count()
	}
	return cs
}

type concatSource struct {
	srcs   []segmentSource
	starts []int
}

func (c *concatSource) count() int { return c.starts[len(c.starts)-1] }
func (c *concatSource) entry(i int) (string, string, []uint16, []float64) {
	// Linear bucket walk: sources are few (segments + tail).
	k := 0
	for c.starts[k+1] <= i {
		k++
	}
	return c.srcs[k].entry(i - c.starts[k])
}

// Stats reports the store's shape for diagnostics (cmd/signdb -inspect, the
// server's /statsz).
func (s *Store) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := Stats{
		Dir:     s.dir,
		Entries: s.sealed + len(s.tail),
		Sealed:  s.sealed,
		Tail:    len(s.tail),
		NextSeq: s.nextSeq,
	}
	for _, sg := range s.segs {
		var bytes int64
		if fi, err := os.Stat(sg.file); err == nil {
			bytes = fi.Size()
		}
		st.Segments = append(st.Segments, SegmentStats{
			File:    filepath.Base(sg.file),
			Entries: sg.count,
			Labels:  len(sg.labels),
			BaseSeq: sg.baseSeq,
			Bytes:   bytes,
		})
		st.DiskBytes += bytes
	}
	if fi, err := os.Stat(filepath.Join(s.dir, walName)); err == nil {
		st.WALBytes = fi.Size()
		st.DiskBytes += fi.Size()
	}
	if msg := s.compactErr.Load(); msg != nil {
		st.LastCompactErr = *msg
	}
	if s.failed != nil {
		st.ReadOnly = true
		st.FailedErr = s.failed.Error()
	}
	return st
}

// SegmentStats describes one sealed segment in Stats.
type SegmentStats struct {
	File    string `json:"file"`
	Entries int    `json:"entries"`
	Labels  int    `json:"labels"` // distinct labels in the segment's table
	BaseSeq uint64 `json:"base_seq"`
	Bytes   int64  `json:"bytes"`
}

// Stats is a point-in-time description of a store's on-disk and in-memory
// shape.
type Stats struct {
	Dir            string         `json:"dir"`
	Entries        int            `json:"entries"`
	Sealed         int            `json:"sealed"`
	Tail           int            `json:"tail"`
	NextSeq        uint64         `json:"next_seq"`
	Segments       []SegmentStats `json:"segments,omitempty"`
	WALBytes       int64          `json:"wal_bytes"`
	DiskBytes      int64          `json:"disk_bytes"`
	LastCompactErr string         `json:"last_compact_err,omitempty"`
	// ReadOnly/FailedErr surface the sticky write-failure state (see
	// Store.ReadOnly) to /statsz and operators.
	ReadOnly  bool   `json:"read_only,omitempty"`
	FailedErr string `json:"failed_err,omitempty"`
}

// Snapshot is the replica-shipping unit: the manifest state and sealed
// segment set captured at a point in time. CopyTo materialises it into a
// fresh store directory; the in-memory tail is not part of a snapshot, so
// callers wanting full fidelity Compact() first.
type Snapshot struct {
	s  *Store
	mf manifest
}

// Snapshot captures the current sealed state.
func (s *Store) Snapshot() Snapshot {
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	return Snapshot{s: s, mf: s.mf}
}

// Files lists the file names (relative to the store directory) that make up
// the snapshot, manifest last.
func (sn Snapshot) Files() []string {
	names := make([]string, 0, len(sn.mf.Segments)+1)
	for _, ms := range sn.mf.Segments {
		names = append(names, ms.File)
	}
	return append(names, manifestName)
}

// Entries returns the number of sealed entries the snapshot carries.
func (sn Snapshot) Entries() int {
	n := 0
	for _, ms := range sn.mf.Segments {
		n += ms.Entries
	}
	return n
}

// CopyTo writes the snapshot into dstDir (created; must not already contain
// a store): segment files are copied byte-for-byte, then the captured
// manifest is written as the commit point — the same ordering compaction
// uses, so an interrupted copy never leaves an openable half-store.
// Compaction on the source store is held off for the duration.
func (sn Snapshot) CopyTo(dstDir string) error {
	s := sn.s
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	if err := os.MkdirAll(dstDir, 0o755); err != nil {
		return err
	}
	if _, err := os.Stat(filepath.Join(dstDir, manifestName)); err == nil {
		return fmt.Errorf("store: %s already contains a store", dstDir)
	}
	for _, ms := range sn.mf.Segments {
		if err := copyFile(filepath.Join(s.dir, ms.File), filepath.Join(dstDir, ms.File)); err != nil {
			return err
		}
	}
	mf := sn.mf
	mf.Segments = append([]manifestSegment(nil), sn.mf.Segments...)
	return writeManifest(dstDir, &mf, os.Rename)
}

// copyFile copies src to dst and fsyncs the copy.
func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.OpenFile(dst, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	if err := out.Sync(); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
