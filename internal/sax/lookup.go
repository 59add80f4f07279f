package sax

import (
	"sync"

	"hdc/internal/timeseries"
)

// lookup.go binds in-memory entry slices — the Database's, and the on-disk
// store's unsealed tail — to the two-stage cascade of cascade.go:
//
//	stage 1 — spectral lower bound: sixteen low-frequency |DFT|
//	          magnitudes, rotation and mirror invariant, so by Parseval
//	          below every alignment of both orientations at every shift
//	          (timeseries.Aligner.LowerBound). Each entry's magnitudes and
//	          squared norm are computed once, when it is stored, so the
//	          per-lookup cost is O(1) per entry;
//	stage 2 — exact rotation/mirror alignment at series level,
//	          cutoff-threaded: an FFT cross-correlation of both orientations
//	          picks the candidate shifts and the direct sum confirms them
//	          (timeseries.Aligner.AlignTransform, bit-identical to the
//	          direct scan). The entry's forward transform (1 KB at n = 128)
//	          is formed on its first exact evaluation and cached in its
//	          TransformSlot, so each later one costs a pointwise product
//	          and one inverse FFT.
//
// Candidates flow through one best-first queue: a binary min-heap ordered
// by (squared spectral bound, insertion seq). Each popped candidate is
// either proven unable to beat the current k-th best exact distance by its
// bound or aligned exactly, so exact evaluations happen in bound order and
// the cutoff tightens early; once the queue's minimum bound clears the
// cutoff even under the largest candidate's tolerance, the remainder is
// rejected wholesale. The MINDIST word distance is computed for the
// returned matches only. All working storage lives in a LookupScratch, so
// the steady state allocates nothing.

// LookupStats counts what the cascade did during the last lookup made with
// a scratch (diagnostics for tuning and the E18/E22 experiments). Every
// entry is counted once: Entries == SpecPruned + ExactEvals.
type LookupStats struct {
	Entries    int // entries scanned
	SpecPruned int // rejected by the spectral (|DFT|) bound
	ExactEvals int // entries that reached the exact alignment stage
}

// LookupScratch holds the reusable per-caller state of the lookup cascade:
// the candidate heap, the top-k working set and the prepared aligner. Hold
// one per worker goroutine (it must not be shared between concurrent
// lookups) and pass it to LookupZWith/LookupKZWith; after the first few
// calls the cascade reaches a zero-allocation steady state. (An entry's
// first exact evaluation allocates its cached transform, once per entry.)
type LookupScratch struct {
	cands    []cand
	maxEE    float64 // largest squared entry norm among cands
	matchSeq []uint64
	one      []Match // backing store for LookupZWith's single result

	// snap is the Database entry-slice snapshot taken by the scan, so
	// candidate references stay resolvable lock-free for the rest of the
	// lookup (the backing array is append-only immutable).
	snap []Entry

	// align is the query prepared for both stages: its spectrum, norms
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

// ScanEntrySpectra records every entry of an in-memory slice as a cascade
// candidate: entry i as reference i, with its insertion seq and the
// Spectrum computed when it was built. Corpus implementations holding Entry
// values call it from ScanSpectra and resolve the references with
// Entry.View.
func ScanEntrySpectra(sc *LookupScratch, entries []Entry) {
	for i := range entries {
		e := &entries[i]
		sc.AppendSpectral(uint64(i), e.seq, &e.spec)
	}
}

// View returns the cascade's read model of the entry.
func (e *Entry) View() EntryView {
	return EntryView{Label: e.Label, Word: e.Word, Series: e.Series, Slot: e.slot}
}

// dbCorpus adapts the Database to the cascade's Corpus interface. The value
// lives inside the Database so the interface conversion never allocates.
type dbCorpus struct{ db *Database }

// ScanSpectra implements Corpus over a snapshot of the entry slice, taken
// under one read lock and then scanned lock-free.
func (c *dbCorpus) ScanSpectra(sc *LookupScratch) {
	sc.snap = c.db.snapshot()
	ScanEntrySpectra(sc, sc.snap)
}

// View implements Corpus by resolving the reference — an index — against
// the snapshot taken by the scan.
func (c *dbCorpus) View(sc *LookupScratch, ref uint64) EntryView {
	return sc.snap[ref].View()
}

// LookupKZWith is the database's entry to the cascade kernel: it finds the
// (up to) k nearest entries to the prepared query (canonical-length
// z-normalised series z, its word qw), closest first, written into dst. dst
// is reused from the start — its existing contents are discarded — and
// capacity ≥ k makes the call allocation-free in steady state. No threshold
// is applied: the runner-up distances feed RivalMargin. The scratch must not
// be shared between concurrent lookups.
func (db *Database) LookupKZWith(sc *LookupScratch, z timeseries.Series, qw Word, k int, dst []Match) ([]Match, error) {
	wordWin, seriesWin := db.params()
	return CascadeLookupKZ(sc, &db.corpus, db.enc, db.n, wordWin, seriesWin, z, qw, k, dst)
}
