package sax

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"hdc/internal/timeseries"
)

// Entry is one labelled reference shape in the database: its SAX word plus
// the normalised reference series the word was derived from, kept for exact
// rotation-alignment confirmation.
type Entry struct {
	Label  string
	Word   Word
	Series timeseries.Series // z-normalised reference signature

	// spec is Series' DFT magnitudes and squared norm — rotation- and
	// mirror-invariant, so one Spectrum bounds both candidates in the
	// cascade's spectral stage.
	spec timeseries.Spectrum

	// hist is the symbol histogram of Word, the degraded mode's prefilter.
	hist []uint16

	// seq is the global insertion sequence number: a stable identity used to
	// break exact distance ties deterministically, so the indexed cascade and
	// the linear reference scan elect the same winner regardless of visit
	// order, and both dictionary backends agree.
	seq uint64
}

// Match is the result of a database lookup.
type Match struct {
	Label    string
	Word     Word
	WordDist float64 // MINDIST lower bound (rotation-minimised)
	Dist     float64 // exact rotation-minimised Euclidean distance
	Shift    int     // series-level circular shift of the best alignment
	Mirrored bool    // true when the mirror candidate won
}

// ErrNoMatch is returned by Lookup when no entry passes the acceptance
// threshold.
var ErrNoMatch = errors.New("sax: no match within threshold")

// Database is a thread-safe collection of labelled reference words/series
// with rotation- and mirror-invariant nearest lookup. It is the "database of
// strings" from the paper's §IV against which captured signs are compared.
//
// Entries live in one append-only slice in insertion (seq) order behind one
// read-write lock — the same layout as the on-disk store's unsealed tail. A
// lookup takes the slice header under the read lock and then reads
// lock-free: Add never rewrites an existing element (append either extends
// in place or copies to a fresh array), so concurrent lookups never
// serialise against each other and an Add only briefly blocks them. Lookup
// runs a two-stage cascade (spectral |DFT| bound → exact alignment, both cut
// off against the best distance so far); LookupZLinear retains the unpruned
// linear scan as the reference implementation and benchmark baseline.
type Database struct {
	enc *Encoder
	n   int // canonical series length

	spec timeseries.SpecTable // computes each entry's Spectrum at insert

	mu        sync.RWMutex
	shiftFrac float64 // fraction of the series length the shift search may cover (≤0: full)
	entries   []Entry // append-only; entries[i].seq == i+1

	// corpus adapts the entries to the cascade kernel (see lookup.go); kept
	// as a field so the Corpus interface conversion never allocates.
	corpus dbCorpus
}

// NewDatabase creates a database for signatures of length n symbolised by
// enc.
func NewDatabase(enc *Encoder, n int) (*Database, error) {
	if enc == nil {
		return nil, errors.New("sax: nil encoder")
	}
	if n < enc.Segments() {
		return nil, fmt.Errorf("sax: series length %d below word length %d", n, enc.Segments())
	}
	db := &Database{enc: enc, n: n, spec: timeseries.NewSpecTable(n)}
	db.corpus.db = db
	return db, nil
}

// Encoder returns the database's encoder.
func (db *Database) Encoder() *Encoder { return db.enc }

// SetShiftWindowFrac restricts the rotation-alignment search to ±frac of the
// signature length (0 or negative restores the full search). Bounding the
// window preserves tolerance to modest in-plane rotation while preventing a
// gross rotation from aliasing one sign's lobe pattern onto another's.
func (db *Database) SetShiftWindowFrac(frac float64) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.shiftFrac = frac
}

// ShiftWindows converts a shift-window fraction (see
// Database.SetShiftWindowFrac) into the rotation bounds of the cascade for
// words of the given segment count over series of length n: -1 (unbounded)
// for frac ≤ 0. The word bound carries a one-symbol safety margin over the
// scaled-down series bound. Both dictionary backends derive their windows
// here, so they always agree.
func ShiftWindows(frac float64, segments, n int) (wordWin, seriesWin int) {
	if frac <= 0 {
		return -1, -1
	}
	return int(frac*float64(segments)) + 1, int(frac * float64(n))
}

// params snapshots the window bounds (-1 = unbounded).
func (db *Database) params() (wordWin, seriesWin int) {
	db.mu.RLock()
	frac := db.shiftFrac
	db.mu.RUnlock()
	return ShiftWindows(frac, db.enc.Segments(), db.n)
}

// SeriesLen returns the canonical signature length.
func (db *Database) SeriesLen() int { return db.n }

// Len returns the number of entries.
func (db *Database) Len() int { return len(db.snapshot()) }

// Add registers a labelled reference series. The series is resampled to the
// canonical length, z-normalised, encoded and stored. Duplicate labels are
// allowed (multiple exemplars per sign).
func (db *Database) Add(label string, s timeseries.Series) error {
	if label == "" {
		return errors.New("sax: empty label")
	}
	rs, err := s.ResampleLinear(db.n)
	if err != nil {
		return fmt.Errorf("sax: add %q: %w", label, err)
	}
	z := rs.ZNormalize()
	w, err := db.enc.Encode(z)
	if err != nil {
		return fmt.Errorf("sax: add %q: %w", label, err)
	}
	db.insert(label, w, z)
	return nil
}

// insert stores an already prepared (canonical-length, z-normalised,
// encoded) entry. The derived forms are built outside the lock; the seq is
// assigned under it, so slice order is seq order.
func (db *Database) insert(label string, w Word, z timeseries.Series) {
	e := NewEntry(&db.spec, 0, label, w, z)
	db.mu.Lock()
	e.seq = uint64(len(db.entries)) + 1
	db.entries = append(db.entries, e)
	db.mu.Unlock()
}

// NewEntry builds the in-memory form of one prepared entry (z canonical-
// length and z-normalised, w its encoding) with global insertion sequence
// number seq, precomputing its Spectrum with tab (a table of z's length)
// and its symbol histogram. It is the one constructor for in-memory
// entries: the Database and the on-disk store's unsealed tail both hold its
// values.
func NewEntry(tab *timeseries.SpecTable, seq uint64, label string, w Word, z timeseries.Series) Entry {
	return Entry{
		Label:  label,
		Word:   w,
		Series: z,
		spec:   tab.Of(z),
		hist:   histOf(w),
		seq:    seq,
	}
}

// Seq returns the entry's global insertion sequence number.
func (e *Entry) Seq() uint64 { return e.seq }

// Hist returns the entry's symbol histogram. The slice is shared: callers
// must not modify it.
func (e *Entry) Hist() []uint16 { return e.hist }

// snapshot returns the entries in insertion (seq) order as a point-in-time
// slice header: the backing array is append-only immutable, so callers read
// it lock-free but must not modify it.
func (db *Database) snapshot() []Entry {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.entries
}

// Entries returns a copy of the registered entries, sorted by label then
// word, for reporting.
func (db *Database) Entries() []Entry {
	out := append([]Entry(nil), db.snapshot()...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Label != out[j].Label {
			return out[i].Label < out[j].Label
		}
		return out[i].Word.Symbols < out[j].Word.Symbols
	})
	return out
}

// Lookup finds the nearest entry to the query series under the rotation- and
// mirror-invariant exact distance, using the pruning cascade. Entries whose
// exact distance exceeds threshold are rejected; if none survive, ErrNoMatch
// is returned together with the best (rejected) candidate for diagnostics.
func (db *Database) Lookup(q timeseries.Series, threshold float64) (Match, error) {
	rs, err := q.ResampleLinear(db.n)
	if err != nil {
		return Match{}, err
	}
	z := rs.ZNormalize()
	qw, err := db.enc.Encode(z)
	if err != nil {
		return Match{}, err
	}
	return db.LookupZ(z, qw, threshold)
}

// LookupZ is Lookup for a query already resampled to the canonical length
// and z-normalised, with its word precomputed — the recogniser's hot path,
// which has both at hand and skips the re-preparation Lookup performs. The
// scratch comes from an internal pool; callers that loop should hold their
// own LookupScratch and use LookupZWith for the zero-allocation steady
// state.
func (db *Database) LookupZ(z timeseries.Series, qw Word, threshold float64) (Match, error) {
	return LookupZOn(db, nil, z, qw, threshold)
}

// LookupZWith is LookupZ using the caller's reusable scratch — the
// allocation-free steady-state path. A scratch must not be shared between
// concurrent lookups.
func (db *Database) LookupZWith(sc *LookupScratch, z timeseries.Series, qw Word, threshold float64) (Match, error) {
	return LookupZOn(db, sc, z, qw, threshold)
}

// LookupK returns the (up to) k nearest entries to the query series under
// the exact rotation/mirror-invariant distance, closest first, written into
// dst (dst is reused from the start: its existing contents are discarded,
// its capacity avoids the allocation). No threshold is applied: the
// runner-up distances feed confidence margins (see Margin/RivalMargin),
// which need the rejected neighbours too.
func (db *Database) LookupK(q timeseries.Series, k int, dst []Match) ([]Match, error) {
	rs, err := q.ResampleLinear(db.n)
	if err != nil {
		return dst[:0], err
	}
	z := rs.ZNormalize()
	qw, err := db.enc.Encode(z)
	if err != nil {
		return dst[:0], err
	}
	sc := lookupScratchPool.Get().(*LookupScratch)
	defer lookupScratchPool.Put(sc)
	return db.LookupKZWith(sc, z, qw, k, dst)
}

// Margin reports the separation between the best match and its runner-up:
// the absolute distance gap and the relative margin (gap divided by the
// runner-up distance, clamped to [0,1]) that the recogniser exposes as match
// confidence. A single-entry result has no competing candidate and yields a
// full margin of 1.
func Margin(matches []Match) (abs, rel float64) {
	if len(matches) == 0 {
		return 0, 0
	}
	if len(matches) == 1 {
		return math.Inf(1), 1
	}
	abs = matches[1].Dist - matches[0].Dist
	if matches[1].Dist > 0 {
		rel = abs / matches[1].Dist
	}
	if rel < 0 {
		rel = 0
	}
	if rel > 1 {
		rel = 1
	}
	return abs, rel
}

// RivalMargin is Margin measured against the nearest *rival* — the closest
// candidate whose label differs from the winner's — rather than the raw
// runner-up. With several exemplars per sign (the fleet-dictionary layout),
// the runner-up of a clean capture is usually another exemplar of the same
// sign at a tiny distance, which would wrongly read as an ambiguous match;
// what confidence should measure is how clearly the winning *label* beat the
// competing labels. When every candidate in matches shares the winner's
// label, the farthest one's distance is used as a conservative lower bound
// on the true rival distance (the real rival, if any, lies beyond the
// returned top-k), so confidence errs low, never high.
func RivalMargin(matches []Match) (abs, rel float64) {
	if len(matches) == 0 {
		return 0, 0
	}
	if len(matches) == 1 {
		return math.Inf(1), 1
	}
	rival := matches[len(matches)-1].Dist
	for _, m := range matches[1:] {
		if m.Label != matches[0].Label {
			rival = m.Dist
			break
		}
	}
	abs = rival - matches[0].Dist
	if rival > 0 {
		rel = abs / rival
	}
	if rel < 0 {
		rel = 0
	}
	if rel > 1 {
		rel = 1
	}
	return abs, rel
}

// LookupZLinear is the retained linear-scan reference implementation: every
// entry is fully evaluated (rotation-windowed MINDIST for the word distance,
// exact rotation/mirror alignment for the decision) with no index, no
// cutoffs and no candidate ordering. It is the oracle the cascade is
// property-tested and fuzzed against — identical Match results for every
// input — and the baseline the BenchmarkDatabaseLookup* speedups are
// measured from.
func (db *Database) LookupZLinear(z timeseries.Series, qw Word, threshold float64) (Match, error) {
	if qw.Alphabet != db.enc.AlphabetSize() || len(qw.Symbols) != db.enc.Segments() {
		return Match{}, ErrWordMismatch
	}
	wordWin, seriesWin := db.params()
	best := Match{Dist: math.Inf(1), WordDist: math.Inf(1)}
	found := false
	var mirror timeseries.Series
	// Entries are visited in seq order, so a strict < keeps the earliest of
	// an exact tie — the cascade's tie break; the == arm admits a first
	// entry at +Inf.
	entries := db.snapshot()
	for i := range entries {
		m, err := db.linearMatch(&entries[i], z, qw, wordWin, seriesWin, &mirror)
		if err != nil {
			return Match{}, err
		}
		if m.Dist < best.Dist || (!found && m.Dist == best.Dist) {
			best, found = m, true
		}
	}
	if !found {
		return Match{}, ErrNoMatch
	}
	if math.IsInf(best.Dist, 1) || best.Dist > threshold {
		return best, ErrNoMatch
	}
	return best, nil
}

// linearMatch evaluates one entry the way LookupZLinear does: the word
// distance, and the exact distance of the forward candidate, then of the
// mirror (built in *mirror), the mirror winning only if strictly closer.
func (db *Database) linearMatch(e *Entry, z timeseries.Series, qw Word, wordWin, seriesWin int, mirror *timeseries.Series) (Match, error) {
	wd, err := db.enc.wordDist(qw, e.Word, db.n, wordWin)
	if err != nil {
		return Match{}, err
	}
	d, shift, err := timeseries.MinRotationDistWindow(z, e.Series, seriesWin)
	if err != nil {
		return Match{}, err
	}
	*mirror = e.Series.MirrorInto(*mirror)
	mirrored := false
	if dRev, sRev, err := timeseries.MinRotationDistWindow(z, *mirror, seriesWin); err != nil {
		return Match{}, err
	} else if dRev < d {
		d, shift, mirrored = dRev, sRev, true
	}
	return Match{Label: e.Label, Word: e.Word, WordDist: wd, Dist: d, Shift: shift, Mirrored: mirrored}, nil
}

// PairwiseMinDist returns a symmetric matrix of rotation-invariant MINDIST
// values between all entries (diagnostics for the sign-uniqueness
// experiment, E8).
func (db *Database) PairwiseMinDist() (labels []string, d [][]float64, err error) {
	entries := db.Entries()
	labels = make([]string, len(entries))
	d = make([][]float64, len(entries))
	for i := range entries {
		labels[i] = entries[i].Label
		d[i] = make([]float64, len(entries))
	}
	wordWin, _ := db.params()
	for i := range entries {
		for j := i + 1; j < len(entries); j++ {
			v, _, _, merr := db.enc.MinDistRotationMirrorWindow(entries[i].Word, entries[j].Word, db.n, wordWin)
			if merr != nil {
				return nil, nil, merr
			}
			d[i][j] = v
			d[j][i] = v
		}
	}
	return labels, d, nil
}

// PairwiseExactDist returns the rotation/mirror-minimised exact Euclidean
// distance matrix between entries.
func (db *Database) PairwiseExactDist() (labels []string, d [][]float64, err error) {
	entries := db.Entries()
	labels = make([]string, len(entries))
	d = make([][]float64, len(entries))
	for i := range entries {
		labels[i] = entries[i].Label
		d[i] = make([]float64, len(entries))
	}
	_, seriesWin := db.params()
	for i := range entries {
		for j := i + 1; j < len(entries); j++ {
			v, _, _, merr := timeseries.MinRotationMirrorDistWindow(entries[i].Series, entries[j].Series, seriesWin)
			if merr != nil {
				return nil, nil, merr
			}
			d[i][j] = v
			d[j][i] = v
		}
	}
	return labels, d, nil
}
