package sax

import (
	"math"

	"hdc/internal/timeseries"
)

// cascade_ref_test.go keeps the three-stage cascade the spectral bound and
// the FFT aligner replaced — its refinement loop unchanged apart from its
// name, with stage 2 the direct pair of MinRotationDistWindowCutoff scans —
// as the oracle for the differential tests in cascade_diff_test.go. Its
// stage counters are the old ones: it never sets SpecPruned.

// RefLookupKZ runs the reference cascade over the database: what
// Database.LookupKZWith returned before the spectral bound and the FFT
// aligner. Exported to the external test package only.
func RefLookupKZ(db *Database, sc *LookupScratch, z timeseries.Series, qw Word, k int, dst []Match) ([]Match, error) {
	wordWin, seriesWin := db.params()
	return refCascadeLookupKZ(sc, &db.corpus, db.enc, db.n, wordWin, seriesWin, z, qw, k, dst)
}

// refCascadeLookupKZ is the former CascadeLookupKZ.
func refCascadeLookupKZ(sc *LookupScratch, cp Corpus, enc *Encoder, n, wordWin, seriesWin int, z timeseries.Series, qw Word, k int, dst []Match) ([]Match, error) {
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
	sc.matchSeq = sc.matchSeq[:0]

	// Stage 0: histogram lower bound per entry, delegated to the corpus
	// (entry-slice scan for the in-memory database, mapped prune-index scan
	// for the on-disk store).
	sc.cands = sc.cands[:0]
	cp.ScanHist(sc, sc.qHist)
	sc.stats.Entries = len(sc.cands)
	heapify(sc.cands)

	// Best-first refinement: pop the smallest current bound; refine stage-0
	// bounds to stage-1 and re-push, run the exact stage on refined ones.
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

		// Stage 2: exact rotation/mirror alignment.
		sc.stats.ExactEvals++
		d, shift, err := timeseries.MinRotationDistWindowCutoff(z, e.Series, seriesWin, cutoff)
		if err != nil {
			sc.cands = sc.cands[:0]
			return dst, err
		}
		mirrored := false
		cutM := cutoff
		if d < cutM {
			cutM = d
		}
		if dRev, sRev, err := timeseries.MinRotationDistWindowCutoff(z, e.RevSeries, seriesWin, cutM); err != nil {
			sc.cands = sc.cands[:0]
			return dst, err
		} else if dRev < d {
			d, shift, mirrored = dRev, sRev, true
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
