package store

import (
	"hdc/internal/failpoint"
	"hdc/internal/sax"
	"hdc/internal/timeseries"
)

// lookup.go adapts the store to the cascade kernel (sax.CascadeLookupKZ):
// the same two-stage cascade that serves the in-memory Database runs here
// over mapped segment memory plus the in-memory tail, producing
// bit-identical results for the same insertion sequence.
//
// The spectral stage reads each sealed segment's per-entry spectra, derived
// from the mapped series block on the segment's first lookup and then kept
// for its lifetime (segment.spectra); the segment file format does not
// carry them, so opening stays O(validation). Entry views are zero-copy:
// the label, word and series all point into the mapping. Entry references
// pack (segment, index) into the kernel's opaque 64-bit ref; the segment
// set and tail are snapshotted per lookup, so a concurrent compaction can
// retire segments without ever invalidating a lookup in flight.

// refSegShift packs the segment ordinal into the high bits of a candidate
// reference. Ordinal 0 is the in-memory tail; sealed segment i is i+1.
const refSegShift = 40

// lookupView is the per-lookup Corpus implementation: a snapshot of the
// sealed segments and the tail. Views are pooled and reused, so steady-state
// lookups allocate nothing.
type lookupView struct {
	s    *Store
	segs []*segment
	tail []sax.Entry
}

// ScanSpectra implements sax.Corpus: every sealed segment's spectra, then
// the tail's.
func (lv *lookupView) ScanSpectra(sc *sax.LookupScratch) {
	for si, sg := range lv.segs {
		ref := uint64(si+1) << refSegShift
		for i, es := range sg.spectra(&lv.s.spec) {
			sc.AppendSpectral(ref|uint64(i), sg.baseSeq+uint64(i), es)
		}
	}
	sax.ScanEntrySpectra(sc, lv.tail)
}

// ScanHist implements sax.Corpus: the degraded-mode histogram pass over
// every sealed segment's mapped prune index, then the tail.
func (lv *lookupView) ScanHist(sc *sax.LookupScratch, qh []uint16) {
	enc, n, al := lv.s.enc, lv.s.p.seriesLen, lv.s.p.alphabet
	for si, sg := range lv.segs {
		ref := uint64(si+1) << refSegShift
		hist := sg.hist
		base := sg.baseSeq
		for i := 0; i < sg.count; i++ {
			lb := enc.HistLowerBoundRaw(qh, hist[i*al:(i+1)*al], n)
			sc.AppendCandidate(ref|uint64(i), base+uint64(i), lb)
		}
	}
	sax.ScanEntryHists(sc, enc, n, qh, lv.tail)
}

// View implements sax.Corpus. Tail entries are heap values; sealed entries
// are views into the mapping, valid until the store is closed.
func (lv *lookupView) View(_ *sax.LookupScratch, ref uint64) sax.EntryView {
	idx := int(ref & (1<<refSegShift - 1))
	si := int(ref >> refSegShift)
	if si == 0 {
		return lv.tail[idx].View()
	}
	sg := lv.segs[si-1]
	return sax.EntryView{
		Label:  sg.label(idx),
		Word:   sax.Word{Symbols: sg.word(idx), Alphabet: lv.s.p.alphabet},
		Series: sg.seriesAt(idx),
	}
}

// LookupKZWith finds the (up to) k nearest entries to the prepared query
// (canonical-length z-normalised series z, its word qw), closest first,
// written into dst — the Database.LookupKZWith contract over the on-disk
// store. Safe concurrently with Add and compaction; the scratch must not be
// shared between concurrent lookups.
//
// Returned matches' Word fields are zero-copy views into the store's mapped
// memory: they stay valid until the store is closed.
func (s *Store) LookupKZWith(sc *sax.LookupScratch, z timeseries.Series, qw sax.Word, k int, dst []sax.Match) ([]sax.Match, error) {
	// The "store stall" site: a delay policy here models a slow disk/page
	// fault under the full cascade; the degraded histogram path does not
	// pass through it.
	if err := failpoint.Inject(failpoint.StoreLookup); err != nil {
		return dst[:0], err
	}
	lv := s.viewPool.Get().(*lookupView)
	lv.s = s
	s.mu.RLock()
	lv.segs = append(lv.segs[:0], s.segs...)
	lv.tail = s.tail
	s.mu.RUnlock()
	wordWin, seriesWin := s.windows()
	dst, err := sax.CascadeLookupKZ(sc, lv, s.enc, s.p.seriesLen, wordWin, seriesWin, z, qw, k, dst)
	lv.tail = nil
	s.viewPool.Put(lv)
	return dst, err
}

// NearestHist runs only the histogram scan over the store's mapped prune
// index plus the in-memory tail — the degraded-mode answer; see
// sax.HistNearest for the contract (Dist is a lower bound, not an exact
// distance). It does not pass through the store/lookup failpoint: the
// degraded path exists to keep answering while the full lookup path is
// stalled.
func (s *Store) NearestHist(sc *sax.LookupScratch, qw sax.Word) (sax.Match, bool) {
	lv := s.viewPool.Get().(*lookupView)
	lv.s = s
	s.mu.RLock()
	lv.segs = append(lv.segs[:0], s.segs...)
	lv.tail = s.tail
	s.mu.RUnlock()
	m, ok := sax.HistNearest(sc, lv, s.enc, qw)
	lv.tail = nil
	s.viewPool.Put(lv)
	return m, ok
}

// LookupZWith finds the single nearest entry under an acceptance threshold —
// the Database.LookupZWith contract (sax.ErrNoMatch carries the best
// rejected candidate for diagnostics).
func (s *Store) LookupZWith(sc *sax.LookupScratch, z timeseries.Series, qw sax.Word, threshold float64) (sax.Match, error) {
	return sax.LookupZOn(s, sc, z, qw, threshold)
}

// Lookup resamples, normalises and encodes a raw query series, then looks up
// its nearest entry under the threshold.
func (s *Store) Lookup(q timeseries.Series, threshold float64) (sax.Match, error) {
	rs, err := q.ResampleLinear(s.p.seriesLen)
	if err != nil {
		return sax.Match{}, err
	}
	z := rs.ZNormalize()
	qw, err := s.enc.Encode(z)
	if err != nil {
		return sax.Match{}, err
	}
	return s.LookupZWith(nil, z, qw, threshold)
}
