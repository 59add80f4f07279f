package sax

import "math"

// histogram.go implements stage 0, the degraded mode's prefilter (see
// degraded.go): a rotation- and mirror-invariant lower bound on MINDIST at
// segment-aligned rotations, computed from symbol histograms alone. It does
// not bound the exact distance at shifts that are not multiples of the
// segment width, so the exact cascade does not use it.
//
// The key observation: a word's symbol histogram (how many 'a's, 'b's, …)
// is invariant under circular rotation and under reversal, so one O(alphabet)
// comparison covers every word alignment. Any
// rotation (mirrored or not) aligns the query's symbols with the entry's
// symbols one-to-one — a bijection between the two multisets. The cheapest
// possible bijection therefore lower-bounds the aligned cell-distance sum of
// every rotation, and hence MINDIST minimised over rotations and mirrors.
//
// The cheapest bijection under the MINDIST cell cost is computable greedily:
// symbol i corresponds to the breakpoint interval [breaks[i-1], breaks[i]]
// on the real line, and cell(i,j)² is the squared gap between the i-th and
// j-th intervals. Squared gaps between ordered intervals form a Monge cost
// matrix, for which the north-west-corner (monotone two-pointer) matching is
// an optimal transport plan. The property test in histogram_test.go verifies
// the lower-bound guarantee against the exhaustive rotation/mirror search on
// randomized words.

// histOf returns the symbol histogram of w: hist[s] counts symbol 'a'+s.
func histOf(w Word) []uint16 {
	h := make([]uint16, w.Alphabet)
	for i := 0; i < len(w.Symbols); i++ {
		h[w.Symbols[i]-'a']++
	}
	return h
}

// histInto is histOf writing into a reusable buffer.
func histInto(dst []uint16, w Word) []uint16 {
	if cap(dst) < w.Alphabet {
		dst = make([]uint16, w.Alphabet)
	}
	dst = dst[:w.Alphabet]
	for i := range dst {
		dst[i] = 0
	}
	for i := 0; i < len(w.Symbols); i++ {
		dst[w.Symbols[i]-'a']++
	}
	return dst
}

// histSlack shrinks the computed bound by one part in 10⁹ so that the
// accumulated floating-point rounding of the transport sum (whose addition
// order differs from the rotation search's) can never turn the mathematical
// lower bound into an over-estimate that would prune a true winner.
const histSlack = 1 - 1e-9

// histLowerBound returns a lower bound on the rotation- and mirror-minimised
// MINDIST between two words with histograms qh and eh, for original series
// length n. Both histograms must sum to the encoder's segment count.
func (e *Encoder) histLowerBound(qh, eh []uint16, n int) float64 {
	nn := n
	if nn < e.segments {
		nn = e.segments
	}
	scale := math.Sqrt(float64(nn) / float64(e.segments))
	var ss float64
	i, j := 0, 0
	qrem, erem := uint16(0), uint16(0)
	for {
		for qrem == 0 {
			if i >= len(qh) {
				return scale * math.Sqrt(ss) * histSlack
			}
			qrem = qh[i]
			if qrem == 0 {
				i++
			}
		}
		for erem == 0 {
			if j >= len(eh) {
				return scale * math.Sqrt(ss) * histSlack
			}
			erem = eh[j]
			if erem == 0 {
				j++
			}
		}
		m := qrem
		if erem < m {
			m = erem
		}
		c := e.cells[i][j]
		ss += float64(m) * c * c
		qrem -= m
		erem -= m
		if qrem == 0 {
			i++
		}
		if erem == 0 {
			j++
		}
	}
}

// HistLowerBoundRaw is the stage-0 bound for pre-extracted histograms — the
// degraded-mode scan used by Corpus implementations whose histograms are
// precomputed (the database's per-entry cache, the on-disk store's mapped
// prune index). No validation is performed: both histograms must be
// alphabet-length and sum to the encoder's segment count.
func (e *Encoder) HistLowerBoundRaw(qh, eh []uint16, n int) float64 {
	return e.histLowerBound(qh, eh, n)
}

// HistogramOf returns w's symbol histogram: hist[i] counts symbol 'a'+i.
// The on-disk store precomputes these at build time into its segment files'
// prune-index block.
func HistogramOf(w Word) []uint16 { return histOf(w) }
