// Package sax implements Symbolic Aggregate approXimation (Lin, Keogh et
// al.) as used by the paper for real-time marshalling-sign recognition:
//
//	shape contour → time series → z-normalise → PAA → symbol string
//
// plus the MINDIST lower-bounding distance, a word database with
// rotation-invariant and mirror-invariant lookup, and the parameter-tuning
// sweep over PAA segment count and alphabet size discussed in the paper's
// reference [22].
package sax

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"hdc/internal/timeseries"
)

// Alphabet size limits. Sizes outside [MinAlphabet, MaxAlphabet] are
// rejected: 2 is the smallest meaningful alphabet, and beyond 26 the symbols
// leave 'a'..'z'.
const (
	MinAlphabet = 2
	MaxAlphabet = 26
)

// Errors returned by the sax package.
var (
	ErrAlphabetSize = errors.New("sax: alphabet size out of range")
	ErrWordMismatch = errors.New("sax: words have different lengths or alphabets")
	ErrEmptyWord    = errors.New("sax: empty word")
)

// Breakpoints returns the a-1 sorted breakpoints that cut the standard
// normal distribution into a equiprobable regions. Symbol i covers
// (bp[i-1], bp[i]].
func Breakpoints(a int) ([]float64, error) {
	if a < MinAlphabet || a > MaxAlphabet {
		return nil, fmt.Errorf("%w: %d", ErrAlphabetSize, a)
	}
	bps := make([]float64, a-1)
	for i := 1; i < a; i++ {
		p := float64(i) / float64(a)
		// Φ⁻¹(p) via the inverse error function.
		bps[i-1] = math.Sqrt2 * math.Erfinv(2*p-1)
	}
	return bps, nil
}

// Word is a SAX string: the symbolised form of a (z-normalised, PAA-reduced)
// series. Symbols are 'a', 'b', ... with 'a' the lowest-value region.
type Word struct {
	Symbols  string
	Alphabet int
}

// String implements fmt.Stringer.
func (w Word) String() string { return w.Symbols }

// Encoder converts raw series into SAX words using fixed parameters. The
// zero value is not usable; construct with NewEncoder.
type Encoder struct {
	segments int
	alphabet int
	breaks   []float64
	cells    [][]float64 // MINDIST cell lookup table
}

// NewEncoder returns an encoder producing words of the given segment count
// (word length) and alphabet size.
func NewEncoder(segments, alphabet int) (*Encoder, error) {
	if segments < 1 {
		return nil, fmt.Errorf("sax: segments %d < 1", segments)
	}
	breaks, err := Breakpoints(alphabet)
	if err != nil {
		return nil, err
	}
	e := &Encoder{
		segments: segments,
		alphabet: alphabet,
		breaks:   breaks,
	}
	e.cells = buildCellTable(breaks, alphabet)
	return e, nil
}

// Segments returns the encoder's word length.
func (e *Encoder) Segments() int { return e.segments }

// AlphabetSize returns the encoder's alphabet size.
func (e *Encoder) AlphabetSize() int { return e.alphabet }

// buildCellTable precomputes dist(r,c) for MINDIST: zero for adjacent or
// equal symbols, otherwise the gap between the closer breakpoints.
func buildCellTable(breaks []float64, a int) [][]float64 {
	t := make([][]float64, a)
	for r := range t {
		t[r] = make([]float64, a)
		for c := range t[r] {
			if abs(r-c) <= 1 {
				continue
			}
			hi, lo := r, c
			if lo > hi {
				hi, lo = lo, hi
			}
			t[r][c] = breaks[hi-1] - breaks[lo]
		}
	}
	return t
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// symbolFor returns the symbol index for a PAA value.
func (e *Encoder) symbolFor(v float64) int {
	// Binary search over breakpoints: index of first breakpoint > v.
	lo, hi := 0, len(e.breaks)
	for lo < hi {
		mid := (lo + hi) / 2
		if e.breaks[mid] <= v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Encode z-normalises s, reduces it to the encoder's segment count with PAA
// and symbolises the result.
func (e *Encoder) Encode(s timeseries.Series) (Word, error) {
	if len(s) == 0 {
		return Word{}, timeseries.ErrEmpty
	}
	if len(s) < e.segments {
		// Upsample first so PAA remains defined; short series are a
		// degenerate capture, not a programming error.
		rs, err := s.ResampleLinear(e.segments)
		if err != nil {
			return Word{}, err
		}
		s = rs
	}
	z := s.ZNormalize()
	paa, err := z.PAA(e.segments)
	if err != nil {
		return Word{}, err
	}
	return e.EncodePAA(paa), nil
}

// EncodeZ symbolises a series that is already z-normalised and at least
// segment-count long, skipping the renormalisation Encode performs. It is the
// hot-path variant used by the recogniser, whose query signatures are
// normalised once and reused for both encoding and database lookup.
func (e *Encoder) EncodeZ(z timeseries.Series) (Word, error) {
	if len(z) == 0 {
		return Word{}, timeseries.ErrEmpty
	}
	if len(z) < e.segments {
		rs, err := z.ResampleLinear(e.segments)
		if err != nil {
			return Word{}, err
		}
		// Interpolation shrinks the variance, so renormalise before cutting
		// against the N(0,1) breakpoints — keeping EncodeZ ≡ Encode on the
		// degenerate short-series branch too.
		z = rs.ZNormalize()
	}
	paa, err := z.PAA(e.segments)
	if err != nil {
		return Word{}, err
	}
	return e.EncodePAA(paa), nil
}

// EncodePAA symbolises an already z-normalised, PAA-reduced series.
func (e *Encoder) EncodePAA(paa timeseries.Series) Word {
	var sb strings.Builder
	sb.Grow(len(paa))
	for _, v := range paa {
		sb.WriteByte(byte('a' + e.symbolFor(v)))
	}
	return Word{Symbols: sb.String(), Alphabet: e.alphabet}
}

// MinDistRotationWindow returns the minimum MINDIST over the circular
// rotations of v, with the rotation search limited to ±maxShift word
// positions (maxShift < 0 searches all rotations), along with the
// minimising rotation. The rotations are evaluated by index offset, so the
// search allocates nothing.
func (e *Encoder) MinDistRotationWindow(w, v Word, n, maxShift int) (best float64, shift int, err error) {
	return e.minDistRotation(w, v, false, n, maxShift)
}

// minDistRotation is MinDistRotationWindow against v, or with mirror set
// against v's mirror word (v.Reverse().Rotate(-1): symbol j is v[−j mod m]),
// read through the index map instead of built. Each rotation's running cell
// sum is abandoned once it exceeds the best so far, which it then cannot
// beat.
func (e *Encoder) minDistRotation(w, v Word, mirror bool, n, maxShift int) (best float64, shift int, err error) {
	m := len(v.Symbols)
	if m == 0 {
		return 0, 0, ErrEmptyWord
	}
	if w.Alphabet != e.alphabet || v.Alphabet != e.alphabet ||
		len(w.Symbols) != e.segments || len(v.Symbols) != e.segments {
		return 0, 0, ErrWordMismatch
	}
	if maxShift < 0 || maxShift >= m/2 {
		maxShift = m / 2
	}
	nn := n
	if nn < e.segments {
		nn = e.segments
	}
	scale := math.Sqrt(float64(nn) / float64(e.segments))
	bestSS := math.Inf(1)
	for k := 0; k <= maxShift; k++ {
		for s := 0; s < 2; s++ {
			kk := k
			if s == 1 {
				if k == 0 {
					continue
				}
				kk = m - k
			}
			var ss float64
			abandoned := false
			for i := 0; i < m; i++ {
				j := i + kk
				if j >= m {
					j -= m
				}
				if mirror && j != 0 {
					j = m - j
				}
				d := e.cells[w.Symbols[i]-'a'][v.Symbols[j]-'a']
				ss += d * d
				if ss > bestSS { // early abandon against the local best
					abandoned = true
					break
				}
			}
			if !abandoned && ss < bestSS {
				bestSS = ss
				shift = kk
			}
		}
	}
	return scale * math.Sqrt(bestSS), shift, nil
}

// wordDist is the word distance a Match reports: the rotation-windowed
// MINDIST of v or of its mirror word against w, whichever is smaller.
func (e *Encoder) wordDist(w, v Word, n, maxShift int) (float64, error) {
	d, _, err := e.minDistRotation(w, v, false, n, maxShift)
	if err != nil {
		return 0, err
	}
	dRev, _, err := e.minDistRotation(w, v, true, n, maxShift)
	if err != nil {
		return 0, err
	}
	if dRev < d {
		d = dRev
	}
	return d, nil
}

// MinDistRotationMirrorWindow extends MinDistRotationWindow with the
// mirrored candidate. As in the series-level matcher, the mirrored word is
// rotated by one so a pure reflection about the start symbol lies at shift
// 0.
func (e *Encoder) MinDistRotationMirrorWindow(w, v Word, n, maxShift int) (best float64, shift int, mirrored bool, err error) {
	d1, s1, err := e.MinDistRotationWindow(w, v, n, maxShift)
	if err != nil {
		return 0, 0, false, err
	}
	d2, s2, err := e.minDistRotation(w, v, true, n, maxShift)
	if err != nil {
		return 0, 0, false, err
	}
	if d2 < d1 {
		return d2, s2, true, nil
	}
	return d1, s1, false, nil
}
