package store

import (
	"hdc/internal/failpoint"
	"hdc/internal/sax"
	"hdc/internal/timeseries"
)

// lookup.go adapts the store to the cascade kernel (sax.CascadeLookupKZ):
// the same four-stage refinement that serves the in-memory Database runs
// here over mapped segment memory plus the in-memory tail, producing
// byte-identical results for the same insertion sequence.
//
// Stage 0 iterates each segment's histogram block — the prune index
// precomputed at build time — directly in the mapping: no per-entry decode,
// no allocation. Entry references pack (segment, index) into the kernel's
// opaque 64-bit ref; the segment set and tail are snapshotted per lookup, so
// a concurrent compaction can retire segments without ever invalidating a
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

// ScanHist implements sax.Corpus: the stage-0 histogram pass over every
// sealed segment's mapped prune index, then the tail.
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
	sax.ScanEntries(sc, enc, n, qh, lv.tail)
}

// View implements sax.Corpus. Tail entries carry their precomputed mirrors;
// sealed entries serve word and series as zero-copy views into the mapping
// and materialise the mirror candidates into the scratch's view buffers
// (valid until the next View call, which is the kernel's contract).
func (lv *lookupView) View(sc *sax.LookupScratch, ref uint64) sax.EntryView {
	idx := int(ref & (1<<refSegShift - 1))
	si := int(ref >> refSegShift)
	if si == 0 {
		return lv.tail[idx].View()
	}
	sg := lv.segs[si-1]
	word := sg.word(idx)
	series := sg.seriesAt(idx)
	nb, nf := len(word), len(series)
	revW, revS := sc.ViewScratch(nb, nf)
	// Mirror transform (reverse, then rotate by one so a pure reflection
	// sits at shift 0): dst[0] = src[0], dst[j] = src[n-j].
	revW[0] = word[0]
	revS[0] = series[0]
	for j := 1; j < nb; j++ {
		revW[j] = word[nb-j]
	}
	for j := 1; j < nf; j++ {
		revS[j] = series[nf-j]
	}
	al := lv.s.p.alphabet
	return sax.EntryView{
		Label:     sg.label(idx),
		Word:      sax.Word{Symbols: word, Alphabet: al},
		RevWord:   sax.Word{Symbols: viewString(revW), Alphabet: al},
		Series:    series,
		RevSeries: revS,
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
	// fault under the full cascade; the degraded stage-0 path does not pass
	// through it.
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

// NearestHist runs only stage 0 over the store's mapped prune index plus
// the in-memory tail — the degraded-mode answer; see sax.HistNearest for
// the contract (Dist is a lower bound, not an exact distance). It does not
// pass through the store/lookup failpoint: the degraded path exists to keep
// answering while the full lookup path is stalled.
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
