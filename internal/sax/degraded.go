package sax

// degraded.go is the lookup's emergency exit: stage 0, the symbol-histogram
// scan, now used by the degraded mode alone. Under overload or a read-only
// store the serving layer cannot afford the exact two-stage cascade (whose
// exact stage is where the time and the mapped-memory traffic go), but the
// histogram lower bound — a linear pass over precomputed per-entry symbol
// histograms, mapped memory for the on-disk store — is cheap enough to run
// on the request goroutine without touching the worker pool. HistNearest
// returns the entry whose bound against the query is smallest: not
// guaranteed to be the true nearest neighbour (a bound orders candidates,
// it does not rank exact distances, and a word-level bound only covers
// shifts that are multiples of the segment width), but in practice the
// right label for queries the full cascade would accept comfortably.
// Serving answers carry degraded:true so clients know the quality contract
// was relaxed.

// HistNearest runs only stage 0 over cp: every entry's
// histogram lower bound against qw, returning the entry with the smallest
// bound. Histograms are rotation-invariant multisets, so distinct signs can
// tie at the same bound (commonly 0) — and MINDIST cannot split the tie
// either, since adjacent-symbol cells are zero. Ties are instead broken by
// the rotation+mirror-minimal symbol-index L1 distance against the query
// (wordShapeDist) — O(segments²) integer ops per tied candidate, no series
// access, zero only for rotation-equivalent words — then by insertion seq,
// keeping the answer deterministic across backends. The returned Match's
// Dist is the histogram bound, NOT an exact distance: it usually
// understates the true distance, so thresholding it tends to accept more
// than the full cascade accepts. ok is
// false on an empty corpus or a query word that does not match the encoder's
// geometry. A nil scratch borrows one from the internal pool; the scratch
// must not be shared between concurrent lookups.
func HistNearest(sc *LookupScratch, cp Corpus, enc *Encoder, qw Word) (m Match, ok bool) {
	if qw.Alphabet != enc.alphabet || len(qw.Symbols) != enc.segments {
		return Match{}, false
	}
	if sc == nil {
		sc = lookupScratchPool.Get().(*LookupScratch)
		defer lookupScratchPool.Put(sc)
	}
	sc.stats = LookupStats{}
	sc.qHist = histInto(sc.qHist, qw)
	sc.cands = sc.cands[:0]
	cp.ScanHist(sc, sc.qHist)
	sc.stats.Entries = len(sc.cands)
	if len(sc.cands) == 0 {
		return Match{}, false
	}
	minLb := sc.cands[0].lb
	for _, c := range sc.cands[1:] {
		if c.lb < minLb {
			minLb = c.lb
		}
	}
	// Tie-break pass: among the minimal-bound candidates, the smallest
	// (wordShapeDist, seq) wins.
	var (
		best     cand
		bestWd   int
		haveBest bool
	)
	for _, c := range sc.cands {
		if c.lb != minLb {
			continue
		}
		v := cp.View(sc, c.ref)
		wd := wordShapeDist(qw, v.Word)
		if !haveBest || wd < bestWd || (wd == bestWd && c.seq < best.seq) {
			best, bestWd, haveBest = c, wd, true
		}
	}
	sc.cands = sc.cands[:0]
	v := cp.View(sc, best.ref)
	return Match{Label: v.Label, Word: v.Word, Dist: best.lb}, true
}

// wordShapeDist is the tie-break metric for histogram-equal candidates: the
// minimum, over all circular rotations of v and its mirror image, of the
// symbol-index L1 distance to w. Unlike MINDIST it has no zero cells off the
// diagonal, so it is zero exactly when the words are rotation (or
// reflection) equivalent. Both words must share a length; HistNearest's
// geometry check guarantees that.
func wordShapeDist(w, v Word) int {
	m := len(w.Symbols)
	best := m * 64
	for r := 0; r < m; r++ {
		fwd, rev := 0, 0
		for i := 0; i < m; i++ {
			a := int(w.Symbols[i])
			d := a - int(v.Symbols[(i+r)%m])
			if d < 0 {
				d = -d
			}
			fwd += d
			d = a - int(v.Symbols[(m-1-i+r)%m])
			if d < 0 {
				d = -d
			}
			rev += d
		}
		if fwd < best {
			best = fwd
		}
		if rev < best {
			best = rev
		}
	}
	return best
}
