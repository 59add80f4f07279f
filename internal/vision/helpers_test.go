package vision

import (
	"math"
	"sort"

	"hdc/internal/raster"
)

// mustGray is raster.NewGray that panics on an invalid size.
func mustGray(w, h int) *raster.Gray {
	g, err := raster.NewGray(w, h)
	if err != nil {
		panic(err)
	}
	return g
}

// Set writes a mask pixel; out-of-range writes are ignored.
func (b *Binary) Set(x, y int, v uint8) {
	if b.In(x, y) {
		if v != 0 {
			v = 1
		}
		b.Pix[y*b.W+x] = v
	}
}

// Count returns the number of foreground pixels.
func (b *Binary) Count() int {
	var n int
	for _, p := range b.Pix {
		if p != 0 {
			n++
		}
	}
	return n
}

// Dilate returns b dilated by a (2r+1)×(2r+1) square structuring element.
func Dilate(b *Binary, r int) *Binary { return morph(b, r, dilateOp) }

// Erode returns b eroded by a (2r+1)×(2r+1) square structuring element.
func Erode(b *Binary, r int) *Binary { return morph(b, r, erodeOp) }

// Threshold binarises g: pixels strictly above t become foreground when
// brightForeground, otherwise pixels at or below t do.
func Threshold(g *raster.Gray, t uint8, brightForeground bool) *Binary {
	b := NewBinary(g.W, g.H)
	for i, p := range g.Pix {
		if (p > t) == brightForeground {
			b.Pix[i] = 1
		}
	}
	return b
}

// LabelComponents runs the served labeller and returns its label image plus
// per-component statistics sorted by area descending, ties by label — the
// shape refLabelComponents answers in.
func LabelComponents(b *Binary) (labels []int32, comps []Component) {
	var p planes
	var l labeller
	l.label(&p, b)
	labels = make([]int32, len(b.Pix))
	for _, r := range l.runs {
		row := labels[int(r.y)*b.W:]
		for x := r.x0; x <= r.x1; x++ {
			row[x] = r.comp + 1
		}
	}
	comps = make([]Component, len(l.blobs))
	for i := range l.blobs {
		comps[i] = l.blobs[i].component(i + 1)
	}
	sort.SliceStable(comps, func(i, j int) bool { return comps[i].Area > comps[j].Area })
	return labels, comps
}

// Centroid returns the mean position of the contour points.
func (c Contour) Centroid() (float64, float64) {
	if len(c) == 0 {
		return 0, 0
	}
	var sx, sy float64
	for _, p := range c {
		sx += float64(p.X)
		sy += float64(p.Y)
	}
	n := float64(len(c))
	return sx / n, sy / n
}

// Perimeter returns the total Euclidean length along the closed contour.
func (c Contour) Perimeter() float64 {
	if len(c) < 2 {
		return 0
	}
	var sum float64
	for i := range c {
		j := (i + 1) % len(c)
		sum += math.Hypot(float64(c[j].X-c[i].X), float64(c[j].Y-c[i].Y))
	}
	return sum
}
