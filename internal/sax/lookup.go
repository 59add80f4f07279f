package sax

import (
	"sync"

	"hdc/internal/timeseries"
)

// lookup.go binds in-memory entry slices — the Database's, and the on-disk
// store's unsealed tail — to the four-stage pruning cascade of cascade.go:
//
//	stage 0 — symbol-histogram lower bound (rotation/mirror invariant,
//	          O(alphabet) per entry, see histogram.go), computed for every
//	          entry of a point-in-time snapshot of the entry slice;
//	stage 1 — rotation-windowed MINDIST over the word and its cached mirror,
//	          early-abandoned against the best exact distance so far;
//	stage 2 — spectral lower bound: four low-frequency |DFT| magnitudes,
//	          rotation and mirror invariant, so by Parseval below every
//	          alignment (timeseries.Aligner.BoundExceeds, O(n) per entry);
//	          it prunes only when stage 3 provably could not improve the
//	          result;
//	stage 3 — exact rotation/mirror alignment at series level, likewise
//	          cutoff-threaded: an FFT cross-correlation of both orientations
//	          picks the candidate shifts and the direct sum confirms them
//	          (timeseries.Aligner.Align, bit-identical to the direct scan).
//
// Candidates flow through a single best-first refinement queue (the optimal
// multi-step filter-and-refine pattern): a binary min-heap ordered by
// (current lower bound, insertion seq). Popping a stage-0 candidate refines
// its histogram bound to the rotation-windowed MINDIST bound and re-pushes
// it; popping a refined candidate runs the spectral bound and, unless that
// prunes it, the exact alignment. Exact evaluations therefore happen in
// true MINDIST order — the cutoff tightens as early as possible — and the
// moment the queue's minimum bound exceeds the current k-th best exact
// distance the remainder is rejected wholesale.
// All working storage lives in a LookupScratch, so the steady state
// allocates nothing. The refinement loop itself lives in CascadeLookupKZ,
// shared with the segmented on-disk store (internal/sax/store).

// LookupStats counts what each cascade stage did during the last lookup
// made with a scratch (diagnostics for tuning and the E18/E22 experiments).
type LookupStats struct {
	Entries    int // entries scanned in stage 0
	HistPruned int // rejected wholesale by the histogram bound
	WordPruned int // rejected by the rotation-windowed MINDIST bound
	SpecPruned int // rejected by the spectral (|DFT|) bound
	ExactEvals int // entries that reached the exact alignment stage
}

// LookupScratch holds the reusable per-caller state of the lookup cascade:
// the query histogram, the candidate heap, the top-k working set, the
// corpus view buffers and the prepared aligner. Hold one per worker
// goroutine (it must not be shared between concurrent lookups) and pass it
// to LookupZWith/LookupKZWith; after the first few calls the cascade
// reaches a zero-allocation steady state.
type LookupScratch struct {
	qHist    []uint16
	cands    []cand
	matchSeq []uint64
	one      []Match // backing store for LookupZWith's single result

	// snap is the Database entry-slice snapshot taken during stage 0, so
	// candidate references stay resolvable lock-free for the rest of the
	// lookup (the backing array is append-only immutable).
	snap []Entry

	// viewW/viewS are the mirror buffers handed out by ViewScratch for
	// corpora that materialise mirror candidates on demand (the on-disk
	// store); the in-memory database caches its mirrors per entry instead.
	viewW []byte
	viewS timeseries.Series

	// align is the query prepared for stages 2 and 3: its spectrum, norms
	// and DFT magnitudes, computed once per lookup.
	align timeseries.Aligner

	stats LookupStats
}

// NewLookupScratch returns a fresh lookup scratch.
func NewLookupScratch() *LookupScratch {
	return &LookupScratch{one: make([]Match, 0, 1)}
}

// Stats returns the stage counters of the last lookup run with this scratch.
func (sc *LookupScratch) Stats() LookupStats { return sc.stats }

// lookupScratchPool backs the scratch-less convenience entry points.
var lookupScratchPool = sync.Pool{
	New: func() any { return NewLookupScratch() },
}

// ScanEntries runs stage 0 of the cascade over an in-memory entry slice
// for a corpus of series length n: entry i is recorded as candidate
// reference i with its insertion seq. Corpus implementations holding Entry
// values call it from ScanHist and resolve the references with Entry.View.
func ScanEntries(sc *LookupScratch, enc *Encoder, n int, qh []uint16, entries []Entry) {
	for i := range entries {
		e := &entries[i]
		sc.AppendCandidate(uint64(i), e.seq, enc.histLowerBound(qh, e.hist, n))
	}
}

// View returns the cascade's read model of the entry, with its precomputed
// mirror candidates.
func (e *Entry) View() EntryView {
	return EntryView{
		Label:     e.Label,
		Word:      e.Word,
		RevWord:   e.revWord,
		Series:    e.Series,
		RevSeries: e.revSeries,
	}
}

// dbCorpus adapts the Database to the cascade's Corpus interface. The value
// lives inside the Database so the interface conversion never allocates.
type dbCorpus struct{ db *Database }

// ScanHist implements Corpus: the stage-0 histogram pass over a snapshot of
// the entry slice, taken under one read lock and then scanned lock-free.
func (c *dbCorpus) ScanHist(sc *LookupScratch, qh []uint16) {
	sc.snap = c.db.snapshot()
	ScanEntries(sc, c.db.enc, c.db.n, qh, sc.snap)
}

// View implements Corpus by resolving the reference — an index — against
// the snapshot taken in ScanHist.
func (c *dbCorpus) View(sc *LookupScratch, ref uint64) EntryView {
	return sc.snap[ref].View()
}

// LookupKZWith is the database's entry to the cascade kernel: it finds the
// (up to) k nearest entries to the prepared query (canonical-length
// z-normalised series z, its word qw), closest first, written into dst. dst
// is reused from the start — its existing contents are discarded — and
// capacity ≥ k makes the call allocation-free in steady state. No threshold
// is applied (see LookupK). The scratch must not be shared between
// concurrent lookups.
func (db *Database) LookupKZWith(sc *LookupScratch, z timeseries.Series, qw Word, k int, dst []Match) ([]Match, error) {
	wordWin, seriesWin := db.params()
	return CascadeLookupKZ(sc, &db.corpus, db.enc, db.n, wordWin, seriesWin, z, qw, k, dst)
}

// NearestHist runs only stage 0 over the database — the degraded-mode
// answer; see HistNearest for the contract (Dist is a lower bound, not an
// exact distance).
func (db *Database) NearestHist(sc *LookupScratch, qw Word) (Match, bool) {
	return HistNearest(sc, &db.corpus, db.enc, qw)
}
