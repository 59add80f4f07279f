package vision

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"
)

// labelWidths are the row widths around the labeller's 64-pixel word
// boundaries.
var labelWidths = []int{1, 63, 64, 65, 127, 128, 200}

// withoutLabel returns c with Label cleared: the run labeller numbers
// components by first pixel, the pixel labeller by its provisional labels.
func withoutLabel(c Component) Component {
	c.Label = 0
	return c
}

// checkComponents compares the run labeller on b against the pixel
// union-find oracle: the package-level labelling and largest component, the
// scratch's largest component and its signature path. s and ref are reused
// across calls so their buffers are exercised while growing and shrinking.
func checkComponents(t testing.TB, s *Scratch, ref *refScratch, b *Binary) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("%d×%d mask %v: "+format, append([]any{b.W, b.H, b.Pix}, args...)...)
	}

	wantLabels, wantComps := refLabelComponents(b)
	labels, comps := LabelComponents(b)
	if len(comps) != len(wantComps) {
		fail("LabelComponents found %d components, oracle %d", len(comps), len(wantComps))
	}
	for i := range comps {
		if withoutLabel(comps[i]) != withoutLabel(wantComps[i]) {
			fail("component %d is %+v, oracle %+v", i, comps[i], wantComps[i])
		}
	}
	// Labels number the components 1…n in raster order of first pixel.
	byLabel := make([]*Component, len(comps)+1)
	for i := range comps {
		c := &comps[i]
		if c.Label < 1 || c.Label > len(comps) || byLabel[c.Label] != nil {
			fail("labels %+v are not a permutation of 1…%d", comps, len(comps))
		}
		byLabel[c.Label] = c
	}
	for l := 2; l <= len(comps); l++ {
		p, q := byLabel[l-1].FirstPix, byLabel[l].FirstPix
		if p[1] > q[1] || p[1] == q[1] && p[0] >= q[0] {
			fail("label %d starts at %v, after label %d at %v", l-1, p, l, q)
		}
	}
	// The label images are the same partition of the pixels.
	toWant := map[int32]int32{0: 0}
	toGot := map[int32]int32{0: 0}
	for i, l := range labels {
		w := wantLabels[i]
		if m, ok := toWant[l]; ok && m != w {
			fail("pixel %d has label %d (oracle %d), but label %d maps to oracle %d", i, l, w, l, m)
		}
		if m, ok := toGot[w]; ok && m != l {
			fail("pixel %d has oracle label %d (got %d), but oracle %d maps to %d", i, w, l, w, m)
		}
		toWant[l], toGot[w] = w, l
	}

	wantBlob, wantComp, wantErr := refLargestComponent(b)
	refBlob, refComp, refErr := ref.largestComponent(b)
	if !errors.Is(refErr, wantErr) || withoutLabel(refComp) != withoutLabel(wantComp) ||
		wantErr == nil && !bytes.Equal(refBlob.Pix, wantBlob.Pix) {
		fail("the two oracles disagree")
	}
	for name, largest := range map[string]func(*Binary) (*Binary, Component, error){
		"LargestComponent":         LargestComponent,
		"Scratch.LargestComponent": s.LargestComponent,
	} {
		blob, comp, err := largest(b)
		if !errors.Is(err, wantErr) {
			fail("%s error %v, oracle %v", name, err, wantErr)
		}
		if err != nil {
			continue
		}
		if withoutLabel(comp) != withoutLabel(wantComp) {
			fail("%s is %+v, oracle %+v", name, comp, wantComp)
		}
		if comp.Label < 1 || comp.Label > len(comps) || byLabel[comp.Label].FirstPix != comp.FirstPix {
			fail("%s label %d does not rank its first pixel %v", name, comp.Label, comp.FirstPix)
		}
		if blob.W != b.W || blob.H != b.H || !bytes.Equal(blob.Pix, wantBlob.Pix) {
			fail("%s mask\ngot  %v\nwant %v", name, blob.Pix, wantBlob.Pix)
		}
	}

	const n = 32
	for _, mode := range []Normalization{NormNone, NormWhiten} {
		sig, contour, comp, err := s.ExtractSignatureNorm(b, n, mode)
		if !errors.Is(err, wantErr) {
			fail("Scratch.ExtractSignatureNorm error %v, oracle %v", err, wantErr)
		}
		if err != nil {
			continue
		}
		if withoutLabel(comp) != withoutLabel(wantComp) {
			fail("Scratch.ExtractSignatureNorm component %+v, oracle %+v", comp, wantComp)
		}
		wantContour, err := TraceContour(wantBlob, Point{wantComp.FirstPix[0], wantComp.FirstPix[1]})
		if err != nil {
			fail("tracing the oracle's component: %v", err)
		}
		wantSig, err := wantContour.SignatureNorm(n, mode)
		if err != nil {
			fail("oracle signature: %v", err)
		}
		if len(contour) != len(wantContour) {
			fail("contour has %d points, oracle %d", len(contour), len(wantContour))
		}
		for i := range contour {
			if contour[i] != wantContour[i] {
				fail("contour point %d is %v, oracle %v", i, contour[i], wantContour[i])
			}
		}
		for i := range sig {
			if math.Float64bits(sig[i]) != math.Float64bits(wantSig[i]) {
				fail("mode %d signature sample %d is %v, oracle %v", mode, i, sig[i], wantSig[i])
			}
		}
	}
}

// labelShapes returns the hand-built masks: diagonal-only joins across a
// word boundary, runs around an empty word, U- and W-shapes that merge late,
// an X, checkerboards, whole-word runs, and empty and full frames.
func labelShapes() []*Binary {
	var out []*Binary
	add := func(w, h int, pts ...[2]int) *Binary {
		b := NewBinary(w, h)
		for _, p := range pts {
			b.Set(p[0], p[1], 1)
		}
		out = append(out, b)
		return b
	}
	// Pixel 63 of row y touches pixel 64 of row y+1 only diagonally, and the
	// mirror image.
	add(128, 2, [2]int{63, 0}, [2]int{64, 1})
	add(128, 2, [2]int{64, 0}, [2]int{63, 1})
	add(130, 3, [2]int{63, 0}, [2]int{64, 1}, [2]int{127, 1}, [2]int{128, 2})
	// One pixel apart is not a join.
	add(128, 2, [2]int{62, 0}, [2]int{64, 1})
	// Runs at both edges of an empty word stay apart.
	add(200, 2, [2]int{63, 0}, [2]int{128, 0}, [2]int{127, 1})
	// U-shapes whose arms merge only in the bottom row; nested ones merge
	// roots already merged.
	for _, w := range []int{20, 65, 200} {
		u := add(w, 12)
		for y := 0; y < 12; y++ {
			u.Set(0, y, 1)
			u.Set(w-1, y, 1)
			if w > 8 {
				u.Set(4, y, 1)
				u.Set(w-5, y, 1)
			}
		}
		for x := 0; x < w; x++ {
			u.Set(x, 11, 1)
		}
		// A W: three arms, the middle one joining last.
		ww := add(w, 6)
		for y := 0; y < 6; y++ {
			ww.Set(0, y, 1)
			ww.Set(w/2, y, 1)
			ww.Set(w-1, y, 1)
		}
		for x := w / 2; x < w; x++ {
			ww.Set(x, 4, 1)
		}
		for x := 0; x <= w/2; x++ {
			ww.Set(x, 5, 1)
		}
	}
	// An X of two diagonal strokes, joined only through 8-neighbours, that
	// meet in the middle rows and part again.
	cross := add(70, 70)
	for y := 0; y < 70; y++ {
		cross.Set(69-y, y, 1)
		cross.Set(y, y, 1)
	}
	for _, w := range labelWidths {
		for _, h := range []int{1, 2, 5} {
			check := add(w, h)
			for y := 0; y < h; y++ {
				for x := (y % 2); x < w; x += 2 {
					check.Set(x, y, 1)
				}
			}
			add(w, h)
			full := add(w, h)
			for i := range full.Pix {
				full.Pix[i] = 255
			}
		}
	}
	// Runs filling a whole word, alone and flanked.
	word := add(200, 4)
	for x := 64; x < 128; x++ {
		word.Set(x, 0, 1)
		word.Set(x, 2, 1)
	}
	for x := 63; x < 129; x++ {
		word.Set(x, 1, 1)
	}
	for x := 0; x < 192; x++ {
		word.Set(x, 3, 1)
	}
	return out
}

func TestRunLabellerMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	s, ref := NewScratch(), &refScratch{comp: &Binary{}}
	for _, b := range labelShapes() {
		checkComponents(t, s, ref, b)
	}
	densities := []float64{0, 0.05, 0.3, 0.5, 0.7, 0.95, 1}
	for _, w := range labelWidths {
		for _, d := range densities {
			for _, h := range []int{1, 2, 3, 1 + rng.Intn(90), 1 + rng.Intn(90)} {
				checkComponents(t, s, ref, randomMask(rng, w, h, d))
			}
		}
	}
	for i := 0; i < 300; i++ {
		w, h := 1+rng.Intn(200), 1+rng.Intn(90)
		checkComponents(t, s, ref, randomMask(rng, w, h, rng.Float64()))
	}
	// Opened noise makes blobs of silhouette-like size with ragged edges.
	for i := 0; i < 20; i++ {
		checkComponents(t, s, ref, Open(randomMask(rng, 200, 90, 0.6), 1))
	}
	checkComponents(t, s, ref, s.Clean(OtsuBinarize(benchFrame()), 1))
}

// FuzzComponents checks the run labeller against the pixel union-find on a
// w×h mask (w < 201, h < 91) tiled from pix.
func FuzzComponents(f *testing.F) {
	f.Fuzz(func(t *testing.T, w uint16, h uint8, pix []byte) {
		b := NewBinary(int(w)%201, int(h)%91)
		if len(pix) > 0 {
			for i := range b.Pix {
				b.Pix[i] = pix[i%len(pix)]
			}
		}
		checkComponents(t, NewScratch(), &refScratch{comp: &Binary{}}, b)
	})
}

// TestLargestComponentTieBreak pins the winner among equal-area components:
// the one whose first pixel comes first in raster order, even when it lies
// to the right of or further down than its rivals' other pixels.
func TestLargestComponentTieBreak(t *testing.T) {
	square := func(b *Binary, x, y, side int) {
		for dy := 0; dy < side; dy++ {
			for dx := 0; dx < side; dx++ {
				b.Set(x+dx, y+dy, 1)
			}
		}
	}
	cases := []struct {
		name string
		make func() *Binary
		want [2]int
	}{
		{"upper right beats lower left", func() *Binary {
			b := NewBinary(20, 20)
			square(b, 1, 8, 3)
			square(b, 15, 2, 3)
			return b
		}, [2]int{15, 2}},
		{"same row, left wins", func() *Binary {
			b := NewBinary(100, 10)
			square(b, 70, 3, 4)
			square(b, 5, 3, 4)
			return b
		}, [2]int{5, 3}},
		{"earlier start beats a taller rival", func() *Binary {
			// A 2×8 bar starting at row 1 and an 8×2 bar starting at
			// row 0 whose right end is further right than the other.
			b := NewBinary(80, 12)
			for y := 1; y < 9; y++ {
				b.Set(3, y, 1)
				b.Set(4, y, 1)
			}
			for x := 66; x < 74; x++ {
				b.Set(x, 0, 1)
				b.Set(x, 1, 1)
			}
			return b
		}, [2]int{66, 0}},
	}
	s := NewScratch()
	for _, c := range cases {
		b := c.make()
		for name, largest := range map[string]func(*Binary) (*Binary, Component, error){
			"LargestComponent":         LargestComponent,
			"Scratch.LargestComponent": s.LargestComponent,
		} {
			_, comp, err := largest(b)
			if err != nil {
				t.Fatalf("%s: %s: %v", c.name, name, err)
			}
			if comp.FirstPix != c.want {
				t.Errorf("%s: %s picked the component at %v, want %v", c.name, name, comp.FirstPix, c.want)
			}
		}
		if _, comps := LabelComponents(b); len(comps) != 2 || comps[0].FirstPix != c.want {
			t.Errorf("%s: LabelComponents ranks %+v first, want the component at %v", c.name, comps, c.want)
		}
	}
}

func TestScratchComponentsAllocFree(t *testing.T) {
	s := NewScratch()
	mask := s.Clean(OtsuBinarize(benchFrame()), 1)
	for name, op := range map[string]func(){
		"ExtractSignatureNorm": func() {
			if _, _, _, err := s.ExtractSignatureNorm(mask, 128, NormWhiten); err != nil {
				t.Fatal(err)
			}
		},
		"LargestComponent": func() {
			if _, _, err := s.LargestComponent(mask); err != nil {
				t.Fatal(err)
			}
		},
	} {
		op() // warm-up: the run table and contour buffers grow once
		if n := testing.AllocsPerRun(20, op); n != 0 {
			t.Errorf("Scratch.%s allocates %v times per call after warm-up, want 0", name, n)
		}
	}
}
