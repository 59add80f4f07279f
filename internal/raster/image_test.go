package raster

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewGrayValidation(t *testing.T) {
	if _, err := NewGray(0, 5); err == nil {
		t.Error("zero width should fail")
	}
	if _, err := NewGray(5, -1); err == nil {
		t.Error("negative height should fail")
	}
	g, err := NewGray(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Pix) != 6 {
		t.Fatalf("pix len %d", len(g.Pix))
	}
}

func TestSetAtBounds(t *testing.T) {
	g := MustGray(4, 4)
	g.Set(1, 2, 200)
	if g.At(1, 2) != 200 {
		t.Fatal("Set/At round trip failed")
	}
	// Out-of-bounds are silent no-ops / zeros.
	g.Set(-1, 0, 50)
	g.Set(4, 0, 50)
	if g.At(-1, 0) != 0 || g.At(0, 9) != 0 {
		t.Fatal("out-of-bounds At should be 0")
	}
}

func TestFillAndStats(t *testing.T) {
	g := MustGray(10, 10)
	g.Fill(100)
	if g.Mean() != 100 {
		t.Fatalf("mean %v", g.Mean())
	}
	if g.CountAbove(99) != 100 || g.CountAbove(100) != 0 {
		t.Fatal("CountAbove wrong")
	}
	h := g.Histogram()
	if h[100] != 100 {
		t.Fatal("histogram wrong")
	}
}

func TestFillPolygonSquare(t *testing.T) {
	g := MustGray(20, 20)
	g.FillPolygon(
		[]float64{5, 15, 15, 5},
		[]float64{5, 5, 15, 15},
		255,
	)
	area := g.CountAbove(0)
	if area < 81 || area > 121 {
		t.Fatalf("10x10 square area = %d, want ≈100", area)
	}
	if g.At(10, 10) != 255 {
		t.Fatal("center not filled")
	}
	if g.At(2, 2) != 0 || g.At(18, 18) != 0 {
		t.Fatal("outside filled")
	}
}

func TestFillPolygonTriangleAndConcave(t *testing.T) {
	g := MustGray(30, 30)
	g.FillPolygon([]float64{5, 25, 15}, []float64{25, 25, 5}, 255)
	// Triangle area = 0.5*20*20 = 200.
	area := g.CountAbove(0)
	if area < 160 || area > 240 {
		t.Fatalf("triangle area = %d, want ≈200", area)
	}

	// Concave "L" shape: even-odd rule must leave the notch empty.
	g2 := MustGray(30, 30)
	g2.FillPolygon(
		[]float64{5, 25, 25, 15, 15, 5},
		[]float64{5, 5, 15, 15, 25, 25},
		255,
	)
	if g2.At(20, 20) != 0 {
		t.Fatal("concave notch should be empty")
	}
	if g2.At(10, 10) == 0 || g2.At(10, 20) == 0 {
		t.Fatal("L body should be filled")
	}
}

func TestFillPolygonDegenerate(t *testing.T) {
	g := MustGray(10, 10)
	g.FillPolygon([]float64{1, 2}, []float64{1, 2}, 255)    // < 3 vertices
	g.FillPolygon([]float64{1, 2, 3}, []float64{1, 2}, 255) // mismatched
	if g.CountAbove(0) != 0 {
		t.Fatal("degenerate polygons must draw nothing")
	}
}

func TestFillDisc(t *testing.T) {
	g := MustGray(40, 40)
	g.FillDisc(20, 20, 10, 255)
	area := float64(g.CountAbove(0))
	want := 3.14159 * 100
	if area < want*0.9 || area > want*1.1 {
		t.Fatalf("disc area = %v, want ≈%v", area, want)
	}
	g.FillDisc(5, 5, -1, 255) // no-op
}

func TestStrokeLine(t *testing.T) {
	g := MustGray(40, 40)
	g.StrokeLine(5, 20, 35, 20, 2, 255)
	if g.At(20, 20) != 255 {
		t.Fatal("line centre not drawn")
	}
	if g.At(20, 26) != 0 {
		t.Fatal("line too thick")
	}
	// Zero-length stroke degenerates to a disc.
	g2 := MustGray(20, 20)
	g2.StrokeLine(10, 10, 10, 10, 3, 255)
	if g2.At(10, 10) != 255 {
		t.Fatal("degenerate stroke should draw a disc")
	}
}

func TestBoxBlurPreservesMass(t *testing.T) {
	g := MustGray(32, 32)
	g.FillDisc(16, 16, 6, 200)
	before := g.Mean()
	g.BoxBlur(2, 3)
	after := g.Mean()
	if after < before*0.85 || after > before*1.15 {
		t.Fatalf("blur changed mean too much: %v → %v", before, after)
	}
	// Blur must actually spread: the max should drop.
	var maxv uint8
	for _, p := range g.Pix {
		if p > maxv {
			maxv = p
		}
	}
	if maxv >= 200 {
		t.Fatal("blur did not attenuate the peak")
	}
	// No-ops.
	h := g.Clone()
	h.BoxBlur(0, 3)
	if !bytes.Equal(h.Pix, g.Pix) {
		t.Fatal("radius 0 must be a no-op")
	}
}

func TestNoiseInjection(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := MustGray(50, 50)
	g.Fill(128)
	g.AddGaussianNoise(rng, 10)
	if g.Mean() < 120 || g.Mean() > 136 {
		t.Fatalf("noisy mean %v drifted", g.Mean())
	}
	var differ int
	for _, p := range g.Pix {
		if p != 128 {
			differ++
		}
	}
	if differ < len(g.Pix)/2 {
		t.Fatal("noise did not perturb pixels")
	}

	g2 := MustGray(50, 50)
	g2.Fill(128)
	g2.AddSaltPepper(rng, 0.1)
	extremes := 0
	for _, p := range g2.Pix {
		if p == 0 || p == 255 {
			extremes++
		}
	}
	if extremes < 100 {
		t.Fatalf("salt&pepper flipped too few: %d", extremes)
	}
	// nil rng / zero params are no-ops.
	g3 := MustGray(5, 5)
	g3.AddGaussianNoise(nil, 10)
	g3.AddSaltPepper(nil, 0.5)
	if g3.CountAbove(0) != 0 {
		t.Fatal("noise with nil rng must be a no-op")
	}
}

func TestClone(t *testing.T) {
	g := MustGray(4, 4)
	g.Set(0, 0, 7)
	c := g.Clone()
	c.Set(0, 0, 9)
	if g.At(0, 0) != 7 {
		t.Fatal("clone aliases")
	}
}

func TestClampU8Property(t *testing.T) {
	f := func(v float64) bool {
		c := clampU8(v)
		return c <= 255
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if clampU8(-5) != 0 || clampU8(300) != 255 || clampU8(127.6) != 128 {
		t.Fatal("clamp known values wrong")
	}
}

// MustGray is NewGray that panics on invalid size.
func MustGray(w, h int) *Gray {
	g, err := NewGray(w, h)
	if err != nil {
		panic(err)
	}
	return g
}

// Clone returns an independent copy.
func (g *Gray) Clone() *Gray {
	out := &Gray{W: g.W, H: g.H, Pix: make([]uint8, len(g.Pix))}
	copy(out.Pix, g.Pix)
	return out
}

// At returns the pixel at (x, y), or 0 outside the image.
func (g *Gray) At(x, y int) uint8 {
	if !g.In(x, y) {
		return 0
	}
	return g.Pix[y*g.W+x]
}

// Mean returns the mean pixel intensity.
func (g *Gray) Mean() float64 {
	var sum int64
	for _, p := range g.Pix {
		sum += int64(p)
	}
	return float64(sum) / float64(len(g.Pix))
}

// CountAbove returns how many pixels exceed t.
func (g *Gray) CountAbove(t uint8) int {
	var n int
	for _, p := range g.Pix {
		if p > t {
			n++
		}
	}
	return n
}
