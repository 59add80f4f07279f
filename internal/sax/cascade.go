package sax

import (
	"errors"
	"math"

	"hdc/internal/timeseries"
)

// cascade.go is the storage-independent kernel of the four-stage lookup
// cascade (see lookup.go for the stage descriptions). The kernel is written
// against the Corpus interface so the same best-first refinement loop — and
// therefore the same deterministic, byte-identical results — runs over the
// in-memory Database and over the segmented on-disk store
// (internal/sax/store), whose stage-0 histograms live in memory-mapped
// segment files instead of heap entries.
//
// A Corpus hands the kernel opaque 64-bit entry references plus the entry's
// global insertion sequence number; the kernel orders its candidate heap by
// (lower bound, seq) exactly as before, so exact-distance ties resolve
// identically regardless of which backend produced the candidates.

// Corpus is the storage abstraction the lookup cascade runs over: anything
// that can enumerate per-entry symbol histograms (stage 0) and materialise a
// full entry view on demand (stages 1–3).
//
// Implementations must be safe for the duration of one lookup: references
// handed to AppendCandidate during ScanHist must stay resolvable by View
// until the lookup returns, even if the corpus is concurrently appended to
// (both backends guarantee this with immutable, append-only storage).
type Corpus interface {
	// ScanHist runs stage 0: for every entry, compute the histogram lower
	// bound against the query histogram qh (Encoder.HistLowerBoundRaw) and
	// record the candidate with sc.AppendCandidate.
	ScanHist(sc *LookupScratch, qh []uint16)
	// View materialises the entry behind ref for the refinement stages. The
	// returned view may borrow scratch buffers (sc.ViewScratch) or
	// memory-mapped storage; it is only valid until the next View call on
	// the same scratch, which is all the kernel needs.
	View(sc *LookupScratch, ref uint64) EntryView
}

// EntryView is the cascade's read model of one stored entry: the label, the
// SAX word and z-normalised series, and their precomputed mirror candidates
// (reversed and rotated by one, see Entry). Backends that do not store the
// mirrors materialise them into scratch buffers on demand. RevSeries must
// be exactly that mirror of Series: the spectral stage bounds both
// orientations from Series alone, because a mirror has the same DFT
// magnitudes.
type EntryView struct {
	Label             string
	Word, RevWord     Word
	Series, RevSeries timeseries.Series
}

// cand is one candidate-queue element: an opaque corpus reference, the
// entry's insertion seq (deterministic tie break), and its current lower
// bound — histogram-level (refined=false) or word-MINDIST-level
// (refined=true).
type cand struct {
	ref     uint64
	seq     uint64
	lb      float64
	refined bool
}

// AppendCandidate records one stage-0 candidate into the scratch: an opaque
// entry reference (resolved later via Corpus.View), the entry's insertion
// sequence number and its histogram lower bound. Corpus implementations call
// it from ScanHist; the append reuses the scratch's candidate storage, so
// the steady state allocates nothing.
func (sc *LookupScratch) AppendCandidate(ref, seq uint64, lb float64) {
	sc.cands = append(sc.cands, cand{ref: ref, seq: seq, lb: lb})
}

// ViewScratch returns the scratch's reusable mirror buffers, sized to nb
// word symbols and nf series samples: corpus implementations that store only
// the forward candidate materialise the mirrored word/series here instead of
// allocating. The buffers are overwritten by the next View call.
func (sc *LookupScratch) ViewScratch(nb, nf int) ([]byte, timeseries.Series) {
	if cap(sc.viewW) < nb {
		sc.viewW = make([]byte, nb)
	}
	if cap(sc.viewS) < nf {
		sc.viewS = make(timeseries.Series, nf)
	}
	return sc.viewW[:nb], sc.viewS[:nf]
}

// errLookupK is returned for k < 1 lookups.
var errLookupK = errors.New("sax: lookup k < 1")

// candLess orders heap elements by (lower bound, insertion seq); the seq tie
// break keeps the pop order — and therefore exact-tie resolution —
// deterministic and identical to the linear reference scan.
func candLess(a, b cand) bool {
	if a.lb != b.lb {
		return a.lb < b.lb
	}
	return a.seq < b.seq
}

// siftDown restores the min-heap property from index i.
func siftDown(h []cand, i int) {
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && candLess(h[r], h[l]) {
			m = r
		}
		if !candLess(h[m], h[i]) {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// heapify builds a min-heap in place.
func heapify(h []cand) {
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
}

// heapPop removes and returns the minimum element.
func heapPop(h []cand) (cand, []cand) {
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	if n > 1 {
		siftDown(h, 0)
	}
	return top, h
}

// heapPush inserts c, restoring the heap property.
func heapPush(h []cand, c cand) []cand {
	h = append(h, c)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !candLess(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	return h
}

// insertTopK inserts m (with tie-break seq) into the ascending
// (Dist, seq)-ordered dst, keeping at most k elements. seqs is maintained in
// parallel with dst.
func insertTopK(dst []Match, seqs *[]uint64, k int, m Match, seq uint64) []Match {
	s := *seqs
	pos := len(dst)
	for pos > 0 {
		p := pos - 1
		if m.Dist < dst[p].Dist || (m.Dist == dst[p].Dist && seq < s[p]) {
			pos = p
		} else {
			break
		}
	}
	if pos >= k {
		return dst // not better than the current k-th
	}
	if len(dst) < k {
		dst = append(dst, Match{})
		s = append(s, 0)
	}
	copy(dst[pos+1:], dst[pos:])
	copy(s[pos+1:], s[pos:len(dst)-1])
	dst[pos] = m
	s[pos] = seq
	*seqs = s
	return dst
}

// CascadeLookupKZ runs the full four-stage cascade over an arbitrary corpus:
// the (up to) k nearest entries to the prepared query (canonical-length
// z-normalised series z, its word qw) are written into dst, closest first.
// enc and n are the corpus's encoder and canonical series length; wordWin
// and seriesWin bound the rotation searches (-1 = unbounded, see
// Database.SetShiftWindowFrac). dst is reused from the start — its existing
// contents are discarded — and capacity ≥ k makes the call allocation-free
// in steady state. The scratch must not be shared between concurrent
// lookups; nil borrows one from an internal pool.
//
// This is the kernel behind Database.LookupKZWith and the on-disk store's
// lookups; both backends return byte-identical Match sets for the same entry
// sequence because every comparison, cutoff and tie break happens here.
func CascadeLookupKZ(sc *LookupScratch, cp Corpus, enc *Encoder, n, wordWin, seriesWin int, z timeseries.Series, qw Word, k int, dst []Match) ([]Match, error) {
	dst = dst[:0]
	if k < 1 {
		return dst, errLookupK
	}
	if qw.Alphabet != enc.alphabet || len(qw.Symbols) != enc.segments {
		return dst, ErrWordMismatch
	}
	if sc == nil {
		sc = lookupScratchPool.Get().(*LookupScratch)
		defer lookupScratchPool.Put(sc)
	}
	sc.stats = LookupStats{}
	sc.qHist = histInto(sc.qHist, qw)
	sc.align.Prepare(z)
	sc.matchSeq = sc.matchSeq[:0]

	// Stage 0: histogram lower bound per entry, delegated to the corpus
	// (entry-slice scan for the in-memory database, mapped prune-index scan
	// for the on-disk store).
	sc.cands = sc.cands[:0]
	cp.ScanHist(sc, sc.qHist)
	sc.stats.Entries = len(sc.cands)
	heapify(sc.cands)

	// Best-first refinement: pop the smallest current bound; refine stage-0
	// bounds to stage-1 and re-push, run stages 2 and 3 on refined ones.
	// The prune comparisons are strict (>) so exact ties stay in play for
	// the deterministic seq tie-break, matching the linear reference bit
	// for bit.
	h := sc.cands
	for len(h) > 0 {
		cutoff := math.Inf(1)
		if len(dst) == k {
			cutoff = dst[k-1].Dist
		}
		var c cand
		c, h = heapPop(h)
		if c.lb > cutoff {
			// Heap order: every remaining bound is at least this one.
			// Count the wholesale rejection by the stage that produced
			// each surviving bound.
			if c.refined {
				sc.stats.WordPruned++
			} else {
				sc.stats.HistPruned++
			}
			for i := range h {
				if h[i].refined {
					sc.stats.WordPruned++
				} else {
					sc.stats.HistPruned++
				}
			}
			break
		}
		e := cp.View(sc, c.ref)

		if !c.refined {
			// Stage 1: MINDIST over word and mirror word.
			wlb, _, err := enc.MinDistRotationWindowCutoff(qw, e.Word, n, wordWin, cutoff)
			if err != nil {
				sc.cands = sc.cands[:0]
				return dst, err
			}
			cutRev := cutoff
			if wlb < cutRev {
				cutRev = wlb
			}
			if wlbRev, _, err := enc.MinDistRotationWindowCutoff(qw, e.RevWord, n, wordWin, cutRev); err != nil {
				sc.cands = sc.cands[:0]
				return dst, err
			} else if wlbRev < wlb {
				wlb = wlbRev
			}
			if wlb > cutoff {
				sc.stats.WordPruned++
				continue
			}
			h = heapPush(h, cand{ref: c.ref, seq: c.seq, lb: wlb, refined: true})
			continue
		}

		// Stage 2: spectral lower bound. Prunes only when every shift of
		// both orientations provably exceeds the cutoff, i.e. when stage 3
		// would return +Inf and leave dst unchanged.
		if sc.align.BoundExceeds(e.Series, cutoff) {
			sc.stats.SpecPruned++
			continue
		}

		// Stage 3: exact rotation/mirror alignment, bit-identical to the
		// direct scan pair (forward, then the mirror under min(cutoff, d)).
		sc.stats.ExactEvals++
		d, shift, mirrored, err := sc.align.Align(e.Series, e.RevSeries, seriesWin, cutoff)
		if err != nil {
			sc.cands = sc.cands[:0]
			return dst, err
		}
		dst = insertTopK(dst, &sc.matchSeq, k, Match{
			Label:    e.Label,
			Word:     e.Word,
			WordDist: c.lb,
			Dist:     d,
			Shift:    shift,
			Mirrored: mirrored,
		}, c.seq)
	}
	sc.cands = sc.cands[:0]
	return dst, nil
}
