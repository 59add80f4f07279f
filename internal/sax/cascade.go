package sax

import (
	"errors"
	"math"

	"hdc/internal/timeseries"
)

// cascade.go is the storage-independent kernel of the two-stage lookup
// cascade (see lookup.go for the stages). The kernel is written against the
// Corpus interface so the same best-first loop — and therefore the same
// deterministic, bit-identical results — runs over the in-memory Database
// and over the segmented on-disk store (internal/sax/store), whose entries
// live in memory-mapped segment files instead of heap entries.
//
// A Corpus hands the kernel opaque 64-bit entry references plus the entry's
// global insertion sequence number and its Spectrum; the kernel orders its
// candidate heap by (spectral lower bound, seq), so exact-distance ties
// resolve identically regardless of which backend produced the candidates.

// Corpus is the storage abstraction the lookup cascade runs over: anything
// that can enumerate per-entry spectra (the cascade's candidate scan) and
// symbol histograms (the degraded-mode scan, see HistNearest), and resolve
// an entry reference to a view on demand.
//
// Implementations must be safe for the duration of one lookup: references
// handed to the scratch during a scan must stay resolvable by View until the
// lookup returns, even if the corpus is concurrently appended to (both
// backends guarantee this with immutable, append-only storage).
type Corpus interface {
	// ScanSpectra records every entry with sc.AppendSpectral.
	ScanSpectra(sc *LookupScratch)
	// ScanHist records every entry with sc.AppendCandidate and its
	// histogram lower bound against the query histogram qh
	// (Encoder.HistLowerBoundRaw).
	ScanHist(sc *LookupScratch, qh []uint16)
	// View resolves ref. The view borrows the corpus's storage — heap
	// entries or mapped segment memory — and copies nothing.
	View(sc *LookupScratch, ref uint64) EntryView
}

// EntryView is the cascade's read model of one stored entry: the label, the
// SAX word and the z-normalised series. The mirror candidate is not stored:
// the aligner derives it from Series for the few entries that reach exact
// alignment.
type EntryView struct {
	Label  string
	Word   Word
	Series timeseries.Series
}

// cand is one candidate-heap element: an opaque corpus reference, the
// entry's insertion seq (deterministic tie break), its lower bound — the
// squared spectral bound in the cascade, the histogram bound in degraded
// mode — and, in the cascade, the entry's squared norm for the bound's
// tolerance.
type cand struct {
	ref uint64
	seq uint64
	lb  float64
	ee  float64
}

// AppendCandidate records one degraded-mode candidate into the scratch: an
// opaque entry reference (resolved later via Corpus.View), the entry's
// insertion sequence number and its histogram lower bound. Corpus
// implementations call it from ScanHist; the append reuses the scratch's
// candidate storage, so the steady state allocates nothing.
func (sc *LookupScratch) AppendCandidate(ref, seq uint64, lb float64) {
	sc.cands = append(sc.cands, cand{ref: ref, seq: seq, lb: lb})
}

// AppendSpectral records one cascade candidate: an opaque entry reference,
// the entry's insertion sequence number and its Spectrum, which must come
// from a timeseries.SpecTable of the corpus's series length. Corpus
// implementations call it from ScanSpectra.
func (sc *LookupScratch) AppendSpectral(ref, seq uint64, es timeseries.Spectrum) {
	sc.cands = append(sc.cands, cand{ref: ref, seq: seq, lb: sc.align.LowerBound(es), ee: es.SS})
	// max keeps a NaN norm, which disables the wholesale break: a NaN
	// bound has no place in the heap order the break relies on.
	sc.maxEE = max(sc.maxEE, es.SS)
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

// CascadeLookupKZ runs the cascade over an arbitrary corpus: the (up to) k
// nearest entries to the prepared query (canonical-length z-normalised
// series z, its word qw) are written into dst, closest first. enc and n are
// the corpus's encoder and canonical series length; wordWin and seriesWin
// bound the rotation searches (-1 = unbounded, see
// Database.SetShiftWindowFrac). dst is reused from the start — its existing
// contents are discarded — and capacity ≥ k makes the call allocation-free
// in steady state. The scratch must not be shared between concurrent
// lookups; nil borrows one from an internal pool.
//
// This is the kernel behind Database.LookupKZWith and the on-disk store's
// lookups. Every returned Match equals, field for field and bit for bit,
// what the exhaustive scan of Database.LookupZLinear computes for that
// entry, and the set is the k smallest by (Dist, seq).
func CascadeLookupKZ(sc *LookupScratch, cp Corpus, enc *Encoder, n, wordWin, seriesWin int, z timeseries.Series, qw Word, k int, dst []Match) ([]Match, error) {
	dst = dst[:0]
	if k < 1 {
		return dst, errLookupK
	}
	if qw.Alphabet != enc.alphabet || len(qw.Symbols) != enc.segments {
		return dst, ErrWordMismatch
	}
	if len(z) != n {
		return dst, timeseries.ErrLengthMismatch
	}
	if sc == nil {
		sc = lookupScratchPool.Get().(*LookupScratch)
		defer lookupScratchPool.Put(sc)
	}
	sc.stats = LookupStats{}
	sc.align.Prepare(z)
	sc.matchSeq = sc.matchSeq[:0]

	// Stage 1: every entry's squared spectral bound, from the spectra the
	// corpus precomputed.
	sc.cands = sc.cands[:0]
	sc.maxEE = 0
	cp.ScanSpectra(sc)
	sc.stats.Entries = len(sc.cands)
	heapify(sc.cands)
	slackMax := sc.align.BoundSlack(sc.maxEE)

	// Best-first: pop the smallest bound and align it exactly unless the
	// bound proves it cannot enter the result. The cutoff is the k-th best
	// distance nudged up one ulp: the aligner abandons a candidate whose
	// squared distance exceeds cutoff², and the square of a rounded root
	// can fall below the sum it came from, so without the nudge a later
	// entry that ties the k-th exactly could be dropped before the seq
	// tie-break sees it. One ulp up covers that rounding (DESIGN.md), and a
	// larger cutoff only prunes less.
	h := sc.cands
	for len(h) > 0 {
		cutoff := math.Inf(1)
		if len(dst) == k {
			cutoff = math.Nextafter(dst[k-1].Dist, math.Inf(1))
		}
		cut2 := cutoff * cutoff
		var c cand
		c, h = heapPop(h)
		if c.lb > cut2+slackMax {
			// Heap order: every remaining bound is at least this one, and
			// slackMax is at least every remaining candidate's slack.
			sc.stats.SpecPruned += 1 + len(h)
			break
		}
		if c.lb > cut2+sc.align.BoundSlack(c.ee) {
			sc.stats.SpecPruned++
			continue
		}

		// Stage 2: exact rotation/mirror alignment, bit-identical to the
		// direct scan pair (forward, then the mirror under min(cutoff, d)).
		sc.stats.ExactEvals++
		e := cp.View(sc, c.ref)
		d, shift, mirrored, err := sc.align.AlignMirror(e.Series, seriesWin, cutoff)
		if err != nil {
			sc.cands = sc.cands[:0]
			return dst, err
		}
		dst = insertTopK(dst, &sc.matchSeq, k, Match{
			Label:    e.Label,
			Word:     e.Word,
			Dist:     d,
			Shift:    shift,
			Mirrored: mirrored,
		}, c.seq)
	}
	sc.cands = sc.cands[:0]

	// The MINDIST word distance, for the returned matches only.
	for i := range dst {
		wd, err := enc.wordDist(qw, dst[i].Word, n, wordWin)
		if err != nil {
			return dst, err
		}
		dst[i].WordDist = wd
	}
	return dst, nil
}
