package sax

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"hdc/internal/timeseries"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func randSeries(rng *rand.Rand, n int) timeseries.Series {
	s := make(timeseries.Series, n)
	for i := range s {
		s[i] = rng.NormFloat64()
	}
	return s
}

func TestBreakpointsKnownValues(t *testing.T) {
	// Canonical SAX breakpoints (Lin et al. Table 3).
	tests := []struct {
		a    int
		want []float64
	}{
		{3, []float64{-0.43, 0.43}},
		{4, []float64{-0.67, 0, 0.67}},
		{5, []float64{-0.84, -0.25, 0.25, 0.84}},
		{6, []float64{-0.97, -0.43, 0, 0.43, 0.97}},
		{8, []float64{-1.15, -0.67, -0.32, 0, 0.32, 0.67, 1.15}},
	}
	for _, tt := range tests {
		got, err := Breakpoints(tt.a)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(tt.want) {
			t.Fatalf("a=%d: %d breakpoints, want %d", tt.a, len(got), len(tt.want))
		}
		for i := range got {
			if !almostEq(got[i], tt.want[i], 0.01) {
				t.Errorf("a=%d bp[%d] = %v, want %v", tt.a, i, got[i], tt.want[i])
			}
		}
	}
}

func TestBreakpointsSortedSymmetric(t *testing.T) {
	for a := MinAlphabet; a <= MaxAlphabet; a++ {
		bp, err := Breakpoints(a)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(bp); i++ {
			if bp[i] <= bp[i-1] {
				t.Fatalf("a=%d: breakpoints not increasing", a)
			}
		}
		// Symmetry: bp[i] == -bp[len-1-i].
		for i := range bp {
			if !almostEq(bp[i], -bp[len(bp)-1-i], 1e-9) {
				t.Fatalf("a=%d: breakpoints not symmetric", a)
			}
		}
	}
}

func TestBreakpointsRange(t *testing.T) {
	if _, err := Breakpoints(1); err == nil {
		t.Error("a=1 should fail")
	}
	if _, err := Breakpoints(27); err == nil {
		t.Error("a=27 should fail")
	}
}

func TestEncodeKnownWord(t *testing.T) {
	enc, err := NewEncoder(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	// A ramp: lowest quarter → 'a', highest → 'd'.
	s := timeseries.Series{-3, -3, -1, -1, 1, 1, 3, 3}
	w, err := enc.Encode(s)
	if err != nil {
		t.Fatal(err)
	}
	if w.Symbols != "abcd" {
		t.Fatalf("word = %q, want abcd", w.Symbols)
	}
}

func TestEncodeConstantSeries(t *testing.T) {
	enc, _ := NewEncoder(4, 5)
	w, err := enc.Encode(timeseries.Series{2, 2, 2, 2, 2, 2, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	// All zeros after z-norm → middle symbol 'c' (alphabet 5).
	if w.Symbols != "cccc" {
		t.Fatalf("constant word = %q, want cccc", w.Symbols)
	}
}

func TestEncodeShortSeriesUpsamples(t *testing.T) {
	enc, _ := NewEncoder(8, 4)
	w, err := enc.Encode(timeseries.Series{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Symbols) != 8 {
		t.Fatalf("word length %d, want 8", len(w.Symbols))
	}
}

func TestEncodeEmpty(t *testing.T) {
	enc, _ := NewEncoder(4, 4)
	if _, err := enc.Encode(nil); err == nil {
		t.Fatal("empty series should fail")
	}
}

func TestSymbolDistribution(t *testing.T) {
	// Gaussian data should hit all symbols roughly equally (equiprobable
	// breakpoints).
	enc, _ := NewEncoder(1, 4)
	rng := rand.New(rand.NewSource(5))
	counts := map[byte]int{}
	const trials = 20000
	for i := 0; i < trials; i++ {
		idx := enc.symbolFor(rng.NormFloat64())
		counts[byte('a'+idx)]++
	}
	for sym := byte('a'); sym <= 'd'; sym++ {
		frac := float64(counts[sym]) / trials
		if frac < 0.22 || frac > 0.28 {
			t.Errorf("symbol %c frequency %.3f outside [0.22,0.28]", sym, frac)
		}
	}
}

func TestWordRotateReverse(t *testing.T) {
	w := Word{Symbols: "abcd", Alphabet: 4}
	if got := w.Rotate(1).Symbols; got != "bcda" {
		t.Errorf("Rotate(1) = %q", got)
	}
	if got := w.Rotate(-1).Symbols; got != "dabc" {
		t.Errorf("Rotate(-1) = %q", got)
	}
	if got := w.Rotate(4).Symbols; got != "abcd" {
		t.Errorf("Rotate(4) = %q", got)
	}
	if got := w.Reverse().Symbols; got != "dcba" {
		t.Errorf("Reverse = %q", got)
	}
}

// TestMinDistLowerBoundsEuclidean verifies the fundamental SAX guarantee:
// MINDIST(Â, B̂) ≤ D(A, B) for z-normalised series A, B. Without this the
// database pruning would be unsound.
func TestMinDistLowerBoundsEuclidean(t *testing.T) {
	const n = 64
	encs := []*Encoder{}
	for _, cfg := range [][2]int{{8, 4}, {16, 6}, {4, 10}, {32, 3}} {
		e, err := NewEncoder(cfg[0], cfg[1])
		if err != nil {
			t.Fatal(err)
		}
		encs = append(encs, e)
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randSeries(rng, n).ZNormalize()
		b := randSeries(rng, n).ZNormalize()
		de, err := timeseries.EuclideanDist(a, b)
		if err != nil {
			return false
		}
		for _, enc := range encs {
			wa, err := enc.Encode(a)
			if err != nil {
				return false
			}
			wb, err := enc.Encode(b)
			if err != nil {
				return false
			}
			md, err := enc.MinDist(wa, wb, n)
			if err != nil {
				return false
			}
			if md > de+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMinDistIdentityAndSymmetry(t *testing.T) {
	enc, _ := NewEncoder(8, 6)
	rng := rand.New(rand.NewSource(17))
	a := randSeries(rng, 64)
	b := randSeries(rng, 64)
	wa, _ := enc.Encode(a)
	wb, _ := enc.Encode(b)
	d0, err := enc.MinDist(wa, wa, 64)
	if err != nil || d0 != 0 {
		t.Fatalf("MinDist(w,w) = %v, %v", d0, err)
	}
	d1, _ := enc.MinDist(wa, wb, 64)
	d2, _ := enc.MinDist(wb, wa, 64)
	if !almostEq(d1, d2, 1e-12) {
		t.Fatalf("MINDIST not symmetric: %v vs %v", d1, d2)
	}
}

func TestMinDistAdjacentSymbolsFree(t *testing.T) {
	enc, _ := NewEncoder(4, 4)
	w1 := Word{Symbols: "aabb", Alphabet: 4}
	w2 := Word{Symbols: "bbaa", Alphabet: 4} // all positions adjacent
	d, err := enc.MinDist(w1, w2, 16)
	if err != nil {
		t.Fatal(err)
	}
	if d != 0 {
		t.Fatalf("adjacent-symbol distance = %v, want 0", d)
	}
	w3 := Word{Symbols: "dddd", Alphabet: 4}
	d, _ = enc.MinDist(w1, w3, 16)
	if d <= 0 {
		t.Fatalf("distant symbols should cost > 0, got %v", d)
	}
}

func TestMinDistWordMismatch(t *testing.T) {
	enc, _ := NewEncoder(4, 4)
	w := Word{Symbols: "abcd", Alphabet: 4}
	v := Word{Symbols: "abc", Alphabet: 4}
	if _, err := enc.MinDist(w, v, 16); err == nil {
		t.Fatal("length mismatch should fail")
	}
	v2 := Word{Symbols: "abcd", Alphabet: 5}
	if _, err := enc.MinDist(w, v2, 16); err == nil {
		t.Fatal("alphabet mismatch should fail")
	}
}

func TestMinDistRotationFindsAlignment(t *testing.T) {
	enc, _ := NewEncoder(8, 6)
	rng := rand.New(rand.NewSource(23))
	a := randSeries(rng, 64)
	wa, _ := enc.Encode(a)
	// Rotating the series by a whole number of PAA frames rotates the word.
	rotated := a.Rotate(8 * 3) // 3 word positions (64/8 = 8 samples per frame)
	wr, _ := enc.Encode(rotated)
	d, shift, err := enc.MinDistRotationWindow(wa, wr, 64, -1)
	if err != nil {
		t.Fatal(err)
	}
	if d != 0 {
		t.Fatalf("rotated word MINDIST = %v, want 0", d)
	}
	if (shift+3)%8 != 0 && shift != 8-3 {
		t.Fatalf("shift = %d, want 5", shift)
	}
}

func TestMinDistRotationMirror(t *testing.T) {
	enc, _ := NewEncoder(8, 6)
	rng := rand.New(rand.NewSource(29))
	a := randSeries(rng, 64).ZNormalize()
	wa, _ := enc.Encode(a)
	wm, _ := enc.Encode(reversed(a))
	d, _, mirrored, err := enc.MinDistRotationMirrorWindow(wa, wm, 64, -1)
	if err != nil {
		t.Fatal(err)
	}
	// Mirror match should be ≈0 via the mirrored branch. (The reversed word
	// of the encoded series differs from encoding the reversed series only at
	// frame boundaries; with divisible lengths they coincide.)
	if d > 1e-9 {
		t.Fatalf("mirror MINDIST = %v, want 0", d)
	}
	_ = mirrored // either branch may win at 0; presence of no error suffices
}

func TestMinDistRotationEmptyWord(t *testing.T) {
	enc, _ := NewEncoder(4, 4)
	if _, _, err := enc.MinDistRotationWindow(Word{}, Word{}, 4, -1); err == nil {
		t.Fatal("empty word should fail")
	}
}

func TestNewEncoderValidation(t *testing.T) {
	if _, err := NewEncoder(0, 4); err == nil {
		t.Error("segments 0 should fail")
	}
	if _, err := NewEncoder(4, 1); err == nil {
		t.Error("alphabet 1 should fail")
	}
}

// MinDist returns the MINDIST lower bound between two words produced by e,
// for original series length n: the per-shift term the rotation searches
// minimise.
func (e *Encoder) MinDist(w, v Word, n int) (float64, error) {
	if w.Alphabet != e.alphabet || v.Alphabet != e.alphabet ||
		len(w.Symbols) != e.segments || len(v.Symbols) != e.segments {
		return 0, ErrWordMismatch
	}
	if n < e.segments {
		n = e.segments
	}
	var ss float64
	for i := 0; i < e.segments; i++ {
		d := e.cells[w.Symbols[i]-'a'][v.Symbols[i]-'a']
		ss += d * d
	}
	return math.Sqrt(float64(n)/float64(e.segments)) * math.Sqrt(ss), nil
}

// Equal reports whether two words are identical in symbols and alphabet.
func (w Word) Equal(v Word) bool {
	return w.Alphabet == v.Alphabet && w.Symbols == v.Symbols
}

// Rotate returns the word circularly shifted left by k symbols.
func (w Word) Rotate(k int) Word {
	n := len(w.Symbols)
	if n == 0 {
		return w
	}
	k = ((k % n) + n) % n
	return Word{Symbols: w.Symbols[k:] + w.Symbols[:k], Alphabet: w.Alphabet}
}

// Reverse returns the mirrored word.
func (w Word) Reverse() Word {
	b := []byte(w.Symbols)
	for i, j := 0, len(b)-1; i < j; i, j = i+1, j-1 {
		b[i], b[j] = b[j], b[i]
	}
	return Word{Symbols: string(b), Alphabet: w.Alphabet}
}

// reversed returns s in reverse order.
func reversed(s timeseries.Series) timeseries.Series {
	out := make(timeseries.Series, len(s))
	for i, v := range s {
		out[len(s)-1-i] = v
	}
	return out
}
