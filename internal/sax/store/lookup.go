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
// for its lifetime (segment.spectra), and the exact stage caches each
// surviving entry's forward transform in a slot made beside them; the
// segment file format carries neither, so opening stays O(validation).
// Entry views are zero-copy: the label, word and series all point into the
// mapping. Entry references pack (segment, index) into the kernel's opaque
// 64-bit ref; the segment set and tail are snapshotted per lookup, so a
// concurrent compaction can retire segments without ever invalidating a
// lookup in flight.

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
		spec := sg.spectra(&lv.s.spec)
		for i := range spec {
			sc.AppendSpectral(ref|uint64(i), sg.baseSeq+uint64(i), &spec[i])
		}
	}
	sax.ScanEntrySpectra(sc, lv.tail)
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
		Slot:   &sg.slots[idx], // made by the scan's spectra call
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
	// The "store stall" site: a delay policy here models a slow disk or a
	// page fault under the cascade.
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

// LookupZWith finds the single nearest entry under an acceptance threshold —
// the Database.LookupZWith contract (sax.ErrNoMatch carries the best
// rejected candidate for diagnostics).
func (s *Store) LookupZWith(sc *sax.LookupScratch, z timeseries.Series, qw sax.Word, threshold float64) (sax.Match, error) {
	return sax.LookupZOn(s, sc, z, qw, threshold)
}
