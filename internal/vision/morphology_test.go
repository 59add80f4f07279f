package vision

import (
	"bytes"
	"math/rand"
	"testing"
)

// morphWidths are the row widths around the packed kernel's 8-byte and
// 64-pixel word boundaries.
var morphWidths = []int{1, 7, 8, 63, 64, 65, 127, 256}

// randomMask returns a w×h mask whose pixels are foreground with probability
// density; a quarter of the foreground bytes are 255 or 2 rather than 1.
func randomMask(rng *rand.Rand, w, h int, density float64) *Binary {
	b := NewBinary(w, h)
	for i := range b.Pix {
		if rng.Float64() >= density {
			continue
		}
		switch rng.Intn(8) {
		case 0:
			b.Pix[i] = 255
		case 1:
			b.Pix[i] = 2
		default:
			b.Pix[i] = 1
		}
	}
	return b
}

// checkMorphology compares every packed operator on b at radius r against
// the byte-per-pixel reference kernels. s is reused across calls so its
// planes are exercised while growing and shrinking.
func checkMorphology(t testing.TB, s *Scratch, b *Binary, r int) {
	t.Helper()
	refOpen := refOpenInto(&Binary{}, b, r, &Binary{}, &Binary{})
	cases := []struct {
		name      string
		got, want *Binary
	}{
		{"Erode", Erode(b, r), refErodeInto(&Binary{}, b, r, &Binary{})},
		{"Dilate", Dilate(b, r), refDilateInto(&Binary{}, b, r, &Binary{})},
		{"Open", Open(b, r), refOpen},
		{"Close", Close(b, r), refCloseInto(&Binary{}, b, r, &Binary{}, &Binary{})},
		{"Scratch.Clean", s.Clean(b.Clone(), r), refCloseInto(&Binary{}, refOpen, r, &Binary{}, &Binary{})},
		{"Scratch.Open", s.Open(b.Clone(), r), refOpen},
	}
	for _, c := range cases {
		if c.got.W != c.want.W || c.got.H != c.want.H || !bytes.Equal(c.got.Pix, c.want.Pix) {
			t.Fatalf("%s on %d×%d at r=%d differs from the byte kernel:\ninput %v\ngot   %v\nwant  %v",
				c.name, b.W, b.H, r, b.Pix, c.got.Pix, c.want.Pix)
		}
	}
}

func TestPackedMorphologyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	s := NewScratch()
	densities := []float64{0, 0.05, 0.3, 0.5, 0.7, 0.95, 1}
	for _, w := range morphWidths {
		for r := 0; r <= 3; r++ {
			for _, d := range densities {
				checkMorphology(t, s, randomMask(rng, w, 1+rng.Intn(90), d), r)
			}
		}
	}
	for i := 0; i < 300; i++ {
		w, h, r := 1+rng.Intn(300), 1+rng.Intn(90), rng.Intn(4)
		checkMorphology(t, s, randomMask(rng, w, h, rng.Float64()), r)
	}
	// Radii of 64 and more shift across whole words.
	for _, r := range []int{63, 64, 65, 130} {
		for _, w := range []int{65, 200, 300} {
			checkMorphology(t, s, randomMask(rng, w, 1+rng.Intn(90), 0.97), r)
		}
	}
}

// FuzzMorphology checks the packed operators against the byte kernels on a
// w×h mask (w < 301, h < 91) tiled from pix, at radius r < 70.
func FuzzMorphology(f *testing.F) {
	f.Fuzz(func(t *testing.T, w uint16, h, r uint8, pix []byte) {
		b := NewBinary(int(w)%301, int(h)%91)
		if len(pix) > 0 {
			for i := range b.Pix {
				b.Pix[i] = pix[i%len(pix)]
			}
		}
		checkMorphology(t, NewScratch(), b, int(r)%70)
	})
}

func TestScratchMorphologyAllocFree(t *testing.T) {
	s := NewScratch()
	mask := OtsuBinarize(benchFrame())
	for name, op := range map[string]func(){
		"Clean": func() { s.Clean(mask, 1) },
		"Open":  func() { s.Open(mask, 1) },
	} {
		op() // warm-up: the planes grow to the frame once
		if n := testing.AllocsPerRun(20, op); n != 0 {
			t.Errorf("Scratch.%s allocates %v times per call after warm-up, want 0", name, n)
		}
	}
}
