// Package vision is the pure-Go substitute for the OpenCV functionality the
// paper's prototype used: global thresholding, binary morphology, connected
// components, contour tracing and the conversion of a closed contour into a
// centroid-distance time series (the "shape → time series" step of §IV).
package vision

import (
	"errors"

	"hdc/internal/raster"
)

// Binary is a binary mask with the same layout as raster.Gray; nonzero
// bytes are foreground.
type Binary struct {
	W, H int
	Pix  []uint8 // 0 background, 1 foreground
}

// ErrEmptyImage is returned for operations on images without foreground.
var ErrEmptyImage = errors.New("vision: no foreground pixels")

// NewBinary allocates an all-background mask.
func NewBinary(w, h int) *Binary {
	return &Binary{W: w, H: h, Pix: make([]uint8, w*h)}
}

// In reports whether (x, y) lies inside the mask.
func (b *Binary) In(x, y int) bool { return x >= 0 && x < b.W && y >= 0 && y < b.H }

// At returns 1 for foreground at (x, y), 0 otherwise (including outside).
func (b *Binary) At(x, y int) uint8 {
	if !b.In(x, y) {
		return 0
	}
	return b.Pix[y*b.W+x]
}

// Clone returns an independent copy.
func (b *Binary) Clone() *Binary {
	out := &Binary{W: b.W, H: b.H, Pix: make([]uint8, len(b.Pix))}
	copy(out.Pix, b.Pix)
	return out
}

// Reset resizes b to w×h, reusing the pixel buffer when capacity allows, and
// clears every pixel to background. It is the reusable-buffer counterpart of
// NewBinary.
func (b *Binary) Reset(w, h int) {
	n := w * h
	if cap(b.Pix) < n {
		b.Pix = make([]uint8, n)
	} else {
		b.Pix = b.Pix[:n]
		for i := range b.Pix {
			b.Pix[i] = 0
		}
	}
	b.W, b.H = w, h
}

// CopyInto copies b into dst (resizing as needed) and returns dst. A nil dst
// allocates, making CopyInto(nil) equivalent to Clone.
func (b *Binary) CopyInto(dst *Binary) *Binary {
	if dst == nil {
		return b.Clone()
	}
	if dst == b {
		return dst
	}
	dst.resize(b.W, b.H)
	copy(dst.Pix, b.Pix)
	return dst
}

// otsuLevel is Otsu's threshold search over a histogram of total pixels:
// the intensity that maximises between-class variance.
func otsuLevel(hist *[256]int, total int) uint8 {
	var sumAll float64
	for i, c := range hist {
		sumAll += float64(i) * float64(c)
	}

	var sumB, wB float64
	var best float64
	var threshold uint8
	for t := 0; t < 256; t++ {
		wB += float64(hist[t])
		if wB == 0 {
			continue
		}
		wF := float64(total) - wB
		if wF == 0 {
			break
		}
		sumB += float64(t) * float64(hist[t])
		mB := sumB / wB
		mF := (sumAll - sumB) / wF
		between := wB * wF * (mB - mF) * (mB - mF)
		if between > best {
			best = between
			threshold = uint8(t)
		}
	}
	return threshold
}

// OtsuBinarize thresholds g at the Otsu level, choosing the polarity that
// yields the smaller foreground (the signaller occupies a minority of the
// frame in the paper's setup).
func OtsuBinarize(g *raster.Gray) *Binary {
	return OtsuBinarizeInto(NewBinary(g.W, g.H), g)
}

// OtsuBinarizeInto is OtsuBinarize writing the mask into dst (resized as
// needed) instead of allocating. It reads g twice: once for the histogram,
// which gives both the threshold and the polarity, and once to write the
// mask through a 256-entry lookup table. dst must not be nil.
func OtsuBinarizeInto(dst *Binary, g *raster.Gray) *Binary {
	hist := g.Histogram()
	t := otsuLevel(&hist, len(g.Pix))
	above := 0
	for _, c := range hist[int(t)+1:] {
		above += c
	}
	brightForeground := above <= len(g.Pix)-above
	var fg [256]uint8
	for v := range fg {
		if (v > int(t)) == brightForeground {
			fg[v] = 1
		}
	}
	dst.resize(g.W, g.H)
	pix := dst.Pix[:len(g.Pix)]
	for i, p := range g.Pix {
		pix[i] = fg[p]
	}
	return dst
}
