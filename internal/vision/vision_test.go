package vision

import (
	"math"
	"math/rand"
	"testing"

	"hdc/internal/raster"
	"hdc/internal/timeseries"
)

func discImage(w, h int, cx, cy, r float64, fg, bg uint8) *raster.Gray {
	g := mustGray(w, h)
	g.Fill(bg)
	g.FillDisc(cx, cy, r, fg)
	return g
}

func TestOtsuSeparatesBimodal(t *testing.T) {
	g := discImage(64, 64, 32, 32, 12, 220, 30)
	hist := g.Histogram()
	th := otsuLevel(&hist, len(g.Pix))
	if th < 30 || th > 220 {
		t.Fatalf("Otsu threshold %d outside modes", th)
	}
	b := Threshold(g, th, true)
	want := math.Pi * 12 * 12
	got := float64(b.Count())
	if got < want*0.85 || got > want*1.15 {
		t.Fatalf("foreground area %v, want ≈%v", got, want)
	}
}

func TestOtsuBinarizePolarity(t *testing.T) {
	// Dark object on bright background must still give the object as
	// foreground (minority class).
	g := discImage(64, 64, 32, 32, 10, 20, 230)
	b := OtsuBinarize(g)
	area := b.Count()
	want := math.Pi * 100
	if float64(area) < want*0.8 || float64(area) > want*1.2 {
		t.Fatalf("dark-object foreground = %d, want ≈%v", area, want)
	}
	if b.At(32, 32) == 0 {
		t.Fatal("object centre must be foreground")
	}
}

func TestThresholdExact(t *testing.T) {
	g := mustGray(2, 1)
	g.Pix[0] = 100
	g.Pix[1] = 101
	b := Threshold(g, 100, true)
	if b.Pix[0] != 0 || b.Pix[1] != 1 {
		t.Fatalf("threshold strictness wrong: %v", b.Pix)
	}
	binv := Threshold(g, 100, false)
	if binv.Pix[0] != 1 || binv.Pix[1] != 0 {
		t.Fatalf("inverted polarity wrong: %v", binv.Pix)
	}
}

func TestBinarySetAt(t *testing.T) {
	b := NewBinary(4, 4)
	b.Set(1, 1, 7) // any nonzero normalises to 1
	if b.At(1, 1) != 1 {
		t.Fatal("Set should normalise to 1")
	}
	b.Set(-1, 0, 1) // ignored
	if b.At(-1, 0) != 0 {
		t.Fatal("out of bounds should read 0")
	}
}

func TestErodeDilateDuality(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	b := NewBinary(40, 40)
	for i := 0; i < 200; i++ {
		b.Set(rng.Intn(40), rng.Intn(40), 1)
	}
	// Dilation grows, erosion shrinks.
	d := Dilate(b, 1)
	e := Erode(b, 1)
	if d.Count() < b.Count() {
		t.Fatal("dilate must not shrink")
	}
	if e.Count() > b.Count() {
		t.Fatal("erode must not grow")
	}
	// Erosion of dilation ⊇ original (closing property).
	cl := Close(b, 1)
	for i := range b.Pix {
		if b.Pix[i] == 1 && cl.Pix[i] == 0 {
			t.Fatal("closing must contain the original")
		}
	}
	// Opening ⊆ original.
	op := Open(b, 1)
	for i := range b.Pix {
		if op.Pix[i] == 1 && b.Pix[i] == 0 {
			t.Fatal("opening must be contained in the original")
		}
	}
}

func TestOpenRemovesSpeckle(t *testing.T) {
	b := NewBinary(40, 40)
	// A solid 12x12 block plus isolated speckles.
	for y := 10; y < 22; y++ {
		for x := 10; x < 22; x++ {
			b.Set(x, y, 1)
		}
	}
	b.Set(2, 2, 1)
	b.Set(35, 5, 1)
	op := Open(b, 1)
	if op.At(2, 2) != 0 || op.At(35, 5) != 0 {
		t.Fatal("open should remove speckles")
	}
	if op.At(15, 15) == 0 {
		t.Fatal("open should keep the block interior")
	}
}

func TestCloseFillsHoles(t *testing.T) {
	b := NewBinary(30, 30)
	for y := 5; y < 25; y++ {
		for x := 5; x < 25; x++ {
			b.Set(x, y, 1)
		}
	}
	b.Set(15, 15, 0) // pinhole
	cl := Close(b, 1)
	if cl.At(15, 15) == 0 {
		t.Fatal("close should fill a pinhole")
	}
}

func TestMorphologyNoop(t *testing.T) {
	b := NewBinary(10, 10)
	b.Set(5, 5, 1)
	if Dilate(b, 0).Count() != 1 || Erode(b, 0).Count() != 1 {
		t.Fatal("radius 0 should be a clone")
	}
}

func TestLabelComponents(t *testing.T) {
	b := NewBinary(20, 10)
	// Two blobs: 3x3 at (1,1), 2x2 at (10,5).
	for y := 1; y < 4; y++ {
		for x := 1; x < 4; x++ {
			b.Set(x, y, 1)
		}
	}
	for y := 5; y < 7; y++ {
		for x := 10; x < 12; x++ {
			b.Set(x, y, 1)
		}
	}
	_, comps := LabelComponents(b)
	if len(comps) != 2 {
		t.Fatalf("components = %d, want 2", len(comps))
	}
	if comps[0].Area != 9 || comps[1].Area != 4 {
		t.Fatalf("areas = %d,%d want 9,4", comps[0].Area, comps[1].Area)
	}
	if comps[0].CenX != 2 || comps[0].CenY != 2 {
		t.Fatalf("centroid = (%v,%v), want (2,2)", comps[0].CenX, comps[0].CenY)
	}
	if comps[0].FirstPix != [2]int{1, 1} {
		t.Fatalf("first pixel = %v", comps[0].FirstPix)
	}
}

func TestLabelComponents8Connectivity(t *testing.T) {
	b := NewBinary(10, 10)
	// Diagonal chain: 8-connected should be ONE component.
	for i := 0; i < 5; i++ {
		b.Set(i, i, 1)
	}
	_, comps := LabelComponents(b)
	if len(comps) != 1 {
		t.Fatalf("diagonal chain gave %d components, want 1", len(comps))
	}
	if comps[0].Area != 5 {
		t.Fatalf("area = %d", comps[0].Area)
	}
}

func TestLabelComponentsUShape(t *testing.T) {
	// A U-shape forces label merging in the second pass (union-find stress).
	b := NewBinary(20, 20)
	for y := 5; y < 15; y++ {
		b.Set(5, y, 1)
		b.Set(15, y, 1)
	}
	for x := 5; x <= 15; x++ {
		b.Set(x, 14, 1)
	}
	_, comps := LabelComponents(b)
	if len(comps) != 1 {
		t.Fatalf("U-shape gave %d components, want 1", len(comps))
	}
}

func TestLargestComponent(t *testing.T) {
	b := NewBinary(20, 20)
	for y := 2; y < 8; y++ {
		for x := 2; x < 8; x++ {
			b.Set(x, y, 1)
		}
	}
	b.Set(15, 15, 1)
	blob, comp, err := NewScratch().LargestComponent(b)
	if err != nil {
		t.Fatal(err)
	}
	if comp.Area != 36 {
		t.Fatalf("largest area = %d", comp.Area)
	}
	if blob.At(15, 15) != 0 {
		t.Fatal("small blob must be excluded")
	}
	empty := NewBinary(5, 5)
	if _, _, err := NewScratch().LargestComponent(empty); err == nil {
		t.Fatal("empty image should fail")
	}
}

func TestTraceContourSquare(t *testing.T) {
	b := NewBinary(20, 20)
	for y := 5; y < 15; y++ {
		for x := 5; x < 15; x++ {
			b.Set(x, y, 1)
		}
	}
	c, err := TraceContourInto(b, Point{5, 5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// A 10x10 square boundary has 36 pixels.
	if len(c) != 36 {
		t.Fatalf("contour length = %d, want 36", len(c))
	}
	// All contour points are on the boundary (touch background).
	for _, p := range c {
		if b.At(p.X, p.Y) == 0 {
			t.Fatalf("contour point %v not foreground", p)
		}
	}
	cx, cy := c.Centroid()
	if math.Abs(cx-9.5) > 0.1 || math.Abs(cy-9.5) > 0.1 {
		t.Fatalf("centroid (%v,%v), want (9.5,9.5)", cx, cy)
	}
}

func TestTraceContourSinglePixel(t *testing.T) {
	b := NewBinary(5, 5)
	b.Set(2, 2, 1)
	c, err := TraceContourInto(b, Point{2, 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(c) != 1 {
		t.Fatalf("single pixel contour = %d points", len(c))
	}
}

func TestTraceContourBadStart(t *testing.T) {
	b := NewBinary(5, 5)
	if _, err := TraceContourInto(b, Point{2, 2}, nil); err == nil {
		t.Fatal("background start should fail")
	}
}

func TestContourPerimeter(t *testing.T) {
	b := NewBinary(20, 20)
	for y := 5; y < 15; y++ {
		for x := 5; x < 15; x++ {
			b.Set(x, y, 1)
		}
	}
	c, _ := TraceContourInto(b, Point{5, 5}, nil)
	p := c.Perimeter()
	if p < 30 || p > 44 {
		t.Fatalf("perimeter = %v, want ≈36", p)
	}
}

func TestSignatureCircleIsFlat(t *testing.T) {
	g := discImage(100, 100, 50, 50, 30, 255, 0)
	mask := OtsuBinarize(g)
	sig, _, _, err := ExtractSignatureNorm(mask, 128, NormNone)
	if err != nil {
		t.Fatal(err)
	}
	// A circle's centroid-distance signature is constant up to pixelation.
	mean := sig.Mean()
	if mean < 28 || mean > 32 {
		t.Fatalf("circle signature mean %v, want ≈30", mean)
	}
	lo, hi := sig.MinMax()
	if (hi-lo)/mean > 0.1 {
		t.Fatalf("circle signature too wobbly: [%v, %v]", lo, hi)
	}
}

func TestSignatureSquareHasFourLobes(t *testing.T) {
	b := NewBinary(100, 100)
	for y := 30; y < 70; y++ {
		for x := 30; x < 70; x++ {
			b.Set(x, y, 1)
		}
	}
	sig, _, _, err := ExtractSignatureNorm(b, 128, NormNone)
	if err != nil {
		t.Fatal(err)
	}
	// Count local maxima of the z-normalised signature: a square has 4
	// corners → 4 lobes.
	z := smoothCircular(sig.ZNormalize(), 3)
	peaks := countCircularPeaks(z, 0.5)
	if peaks != 4 {
		t.Fatalf("square signature has %d peaks, want 4", peaks)
	}
}

// smoothCircular is a centred moving average of window 2*half+1 that wraps
// around the closed contour.
func smoothCircular(s timeseries.Series, half int) timeseries.Series {
	n := len(s)
	out := make(timeseries.Series, n)
	for i := range s {
		var sum float64
		for d := -half; d <= half; d++ {
			sum += s[((i+d)%n+n)%n]
		}
		out[i] = sum / float64(2*half+1)
	}
	return out
}

func countCircularPeaks(s timeseries.Series, minHeight float64) int {
	n := len(s)
	count := 0
	for i := 0; i < n; i++ {
		prev := s[(i-1+n)%n]
		next := s[(i+1)%n]
		if s[i] > minHeight && s[i] > prev && s[i] >= next {
			count++
		}
	}
	return count
}

func TestSignatureRotationShiftsSeries(t *testing.T) {
	// Rotating a shape in the image plane circularly shifts its signature.
	mk := func(angle float64) timeseries.Series {
		g := mustGray(160, 160)
		// An ellipse drawn as a rotated polygon.
		var xs, ys []float64
		for i := 0; i < 64; i++ {
			t := 2 * math.Pi * float64(i) / 64
			x := 50 * math.Cos(t)
			y := 25 * math.Sin(t)
			xr := x*math.Cos(angle) - y*math.Sin(angle)
			yr := x*math.Sin(angle) + y*math.Cos(angle)
			xs = append(xs, 80+xr)
			ys = append(ys, 80+yr)
		}
		g.FillPolygon(xs, ys, 255)
		mask := OtsuBinarize(g)
		sig, _, _, err := ExtractSignatureNorm(mask, 128, NormNone)
		if err != nil {
			panic(err)
		}
		return sig.ZNormalize()
	}
	s0 := mk(0)
	s45 := mk(math.Pi / 4)
	dmin, _, err := timeseries.MinRotationDist(s0, s45)
	if err != nil {
		t.Fatal(err)
	}
	dplain, _ := timeseries.EuclideanDist(s0, s45)
	if dmin > 3 {
		t.Fatalf("rotated ellipse min-rotation distance %v too large", dmin)
	}
	if dmin > dplain {
		t.Fatal("min-rotation distance exceeded plain distance")
	}
}

func TestExtractSignatureErrors(t *testing.T) {
	if _, _, _, err := ExtractSignatureNorm(NewBinary(10, 10), 64, NormNone); err == nil {
		t.Fatal("empty mask should fail")
	}
	b := NewBinary(10, 10)
	b.Set(5, 5, 1)
	if _, _, _, err := ExtractSignatureNorm(b, 0, NormNone); err == nil {
		t.Fatal("bad signature length should fail")
	}
}
