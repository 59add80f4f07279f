package sax

import (
	"math/rand"
	"testing"
)

// randWord draws a uniform random word of the encoder's shape.
func randWord(rng *rand.Rand, segments, alphabet int) Word {
	b := make([]byte, segments)
	for i := range b {
		b[i] = byte('a' + rng.Intn(alphabet))
	}
	return Word{Symbols: string(b), Alphabet: alphabet}
}

// TestHistLowerBoundProperty is the proof-of-lower-bound property test for
// the stage-0 prefilter: over randomized word pairs (and explicitly rotated/
// mirrored pairs), the histogram bound never exceeds the rotation- and
// mirror-minimised MINDIST — the guarantee that makes rejecting an entry on
// the bound alone safe. Both the full rotation search and bounded windows
// are checked: a window restricts the search, so its minimum can only grow.
func TestHistLowerBoundProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	shapes := []struct{ segments, alphabet, n int }{
		{16, 5, 128},
		{16, 6, 128},
		{8, 4, 64},
		{24, 10, 256},
		{5, 3, 5},
	}
	for _, shape := range shapes {
		enc, err := NewEncoder(shape.segments, shape.alphabet)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 300; trial++ {
			w := randWord(rng, shape.segments, shape.alphabet)
			var v Word
			switch trial % 3 {
			case 0: // unrelated word
				v = randWord(rng, shape.segments, shape.alphabet)
			case 1: // rotation of w (exact distance 0 at some shift)
				v = w.Rotate(rng.Intn(shape.segments))
			default: // mirrored rotation of w
				v = w.Reverse().Rotate(rng.Intn(shape.segments))
			}
			lb, err := enc.HistLowerBound(w, v, shape.n)
			if err != nil {
				t.Fatal(err)
			}
			for _, win := range []int{-1, 0, 2, shape.segments / 3} {
				md, _, _, err := enc.MinDistRotationMirrorWindow(w, v, shape.n, win)
				if err != nil {
					t.Fatal(err)
				}
				if lb > md {
					t.Fatalf("segments=%d alphabet=%d win=%d: histogram bound %.17g exceeds MINDIST %.17g for %q vs %q",
						shape.segments, shape.alphabet, win, lb, md, w.Symbols, v.Symbols)
				}
			}
		}
	}
}

// TestHistLowerBoundInvariance: rotations and mirrors of the same word carry
// the same histogram, so the bound is identical for every alignment of the
// same entry — the invariance the degraded scan relies on to reuse one
// bound for both the forward and the mirror candidate.
func TestHistLowerBoundInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	enc, err := NewEncoder(16, 6)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 100; trial++ {
		q := randWord(rng, 16, 6)
		e := randWord(rng, 16, 6)
		base, err := enc.HistLowerBound(q, e, 128)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range []Word{e.Rotate(3), e.Reverse(), e.Reverse().Rotate(-1), e.Rotate(9).Reverse()} {
			lb, err := enc.HistLowerBound(q, v, 128)
			if err != nil {
				t.Fatal(err)
			}
			if lb != base {
				t.Fatalf("bound not alignment-invariant: %v vs %v", lb, base)
			}
		}
	}
}

// TestHistLowerBoundMismatch rejects words of the wrong shape.
func TestHistLowerBoundMismatch(t *testing.T) {
	enc, _ := NewEncoder(8, 4)
	w := Word{Symbols: "abcdabcd", Alphabet: 4}
	if _, err := enc.HistLowerBound(w, Word{Symbols: "abc", Alphabet: 4}, 64); err == nil {
		t.Fatal("length mismatch should fail")
	}
	if _, err := enc.HistLowerBound(w, Word{Symbols: "abcdabcd", Alphabet: 5}, 64); err == nil {
		t.Fatal("alphabet mismatch should fail")
	}
}
