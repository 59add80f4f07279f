package vision

import (
	"math"
	"testing"
)

// maskFromPolygon rasterises a polygon into a binary mask.
func maskFromPolygon(w, h int, xs, ys []float64) *Binary {
	g := mustGray(w, h)
	g.FillPolygon(xs, ys, 255)
	return Threshold(g, 128, true)
}

// lShape returns an asymmetric test shape (translation/rotation/scale
// applied around its centroid).
func lShape(w, h int, cx, cy, scale, rot float64) *Binary {
	base := [][2]float64{
		{-20, -30}, {0, -30}, {0, 10}, {20, 10}, {20, 30}, {-20, 30},
	}
	xs := make([]float64, len(base))
	ys := make([]float64, len(base))
	s, c := math.Sincos(rot)
	for i, p := range base {
		x := p[0] * scale
		y := p[1] * scale
		xs[i] = cx + x*c - y*s
		ys[i] = cy + x*s + y*c
	}
	return maskFromPolygon(w, h, xs, ys)
}

func TestComputeMomentsBasics(t *testing.T) {
	// A centred square: centroid at the centre, Mu11 ≈ 0, Mu20 ≈ Mu02.
	b := NewBinary(60, 60)
	for y := 20; y < 40; y++ {
		for x := 20; x < 40; x++ {
			b.Set(x, y, 1)
		}
	}
	m, err := ComputeMoments(b)
	if err != nil {
		t.Fatal(err)
	}
	if m.M00 != 400 {
		t.Fatalf("area = %v", m.M00)
	}
	if math.Abs(m.Cx-29.5) > 0.01 || math.Abs(m.Cy-29.5) > 0.01 {
		t.Fatalf("centroid (%v,%v)", m.Cx, m.Cy)
	}
	if math.Abs(m.Mu11) > 1e-6 {
		t.Fatalf("Mu11 = %v, want 0 for a square", m.Mu11)
	}
	if math.Abs(m.Mu20-m.Mu02) > 1e-6 {
		t.Fatalf("square moments asymmetric: %v vs %v", m.Mu20, m.Mu02)
	}
	if _, err := ComputeMoments(NewBinary(5, 5)); err == nil {
		t.Fatal("empty mask should fail")
	}
}

func TestHuInvariance(t *testing.T) {
	ref, err := HuMoments(lShape(200, 200, 100, 100, 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name string
		mask *Binary
		tol  float64
	}{
		{"translated", lShape(200, 200, 140, 80, 1, 0), 0.3},
		{"scaled", lShape(200, 200, 100, 100, 1.5, 0), 0.4},
		{"rotated 45°", lShape(200, 200, 100, 100, 1, math.Pi/4), 0.6},
		{"rotated 90°", lShape(200, 200, 100, 100, 1, math.Pi/2), 0.4},
		{"all three", lShape(200, 200, 80, 120, 1.3, math.Pi/3), 0.7},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			h, err := HuMoments(tt.mask)
			if err != nil {
				t.Fatal(err)
			}
			if d := HuDistance(ref, h); d > tt.tol {
				t.Fatalf("Hu distance %v exceeds %v", d, tt.tol)
			}
		})
	}
}

func TestHuMirrorTolerance(t *testing.T) {
	ref, _ := HuMoments(lShape(200, 200, 100, 100, 1, 0))
	// Mirror the shape (negate X offsets).
	base := [][2]float64{
		{20, -30}, {0, -30}, {0, 10}, {-20, 10}, {-20, 30}, {20, 30},
	}
	xs := make([]float64, len(base))
	ys := make([]float64, len(base))
	for i, p := range base {
		xs[i] = 100 + p[0]
		ys[i] = 100 + p[1]
	}
	mirror := maskFromPolygon(200, 200, xs, ys)
	h, err := HuMoments(mirror)
	if err != nil {
		t.Fatal(err)
	}
	if d := HuDistance(ref, h); d > 0.3 {
		t.Fatalf("mirror distance %v too large", d)
	}
}

func TestHuSeparatesShapes(t *testing.T) {
	lref, _ := HuMoments(lShape(200, 200, 100, 100, 1, 0))
	// A disc is very different from an L.
	g := mustGray(200, 200)
	g.FillDisc(100, 100, 30, 255)
	disc := Threshold(g, 128, true)
	h, err := HuMoments(disc)
	if err != nil {
		t.Fatal(err)
	}
	same, _ := HuMoments(lShape(200, 200, 120, 90, 1.2, 0.5))
	dDiff := HuDistance(lref, h)
	dSame := HuDistance(lref, same)
	if dDiff <= dSame {
		t.Fatalf("disc (%v) should be farther than transformed L (%v)", dDiff, dSame)
	}
}

func TestHuClassifier(t *testing.T) {
	var c HuClassifier
	if _, _, err := c.Classify(lShape(100, 100, 50, 50, 0.8, 0)); err == nil {
		t.Fatal("empty classifier should fail")
	}
	if err := c.Add("L", lShape(200, 200, 100, 100, 1, 0)); err != nil {
		t.Fatal(err)
	}
	g := mustGray(200, 200)
	g.FillDisc(100, 100, 30, 255)
	if err := c.Add("disc", Threshold(g, 128, true)); err != nil {
		t.Fatal(err)
	}
	label, d, err := c.Classify(lShape(200, 200, 90, 110, 1.2, 0.7))
	if err != nil {
		t.Fatal(err)
	}
	if label != "L" {
		t.Fatalf("classified as %q (dist %v)", label, d)
	}
	// Threshold rejection.
	c.Threshold = 1e-9
	if _, _, err := c.Classify(lShape(200, 200, 90, 110, 1.2, 0.7)); err == nil {
		t.Fatal("tight threshold should reject")
	}
	// Empty query fails.
	c.Threshold = 0
	if _, _, err := c.Classify(NewBinary(10, 10)); err == nil {
		t.Fatal("empty query should fail")
	}
}
