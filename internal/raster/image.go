// Package raster provides the minimal grayscale-image substrate used by the
// synthetic drone camera and the vision pipeline: an 8-bit frame buffer,
// polygon/disc rasterisation, box blur and noise injection. It stands in
// for the parts of OpenCV the paper's Python prototype used.
package raster

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
)

// Gray is an 8-bit grayscale image with row-major pixels. Pixel (x, y) is
// Pix[y*W+x]; origin is top-left with y growing downwards.
type Gray struct {
	W, H int
	Pix  []uint8
}

// ErrBadSize is returned when constructing an image with non-positive
// dimensions.
var ErrBadSize = errors.New("raster: image dimensions must be positive")

// NewGray allocates a zero (black) image.
func NewGray(w, h int) (*Gray, error) {
	if w <= 0 || h <= 0 {
		return nil, fmt.Errorf("%w: %dx%d", ErrBadSize, w, h)
	}
	return &Gray{W: w, H: h, Pix: make([]uint8, w*h)}, nil
}

// Reset resizes g to w×h, reusing the pixel buffer when its capacity allows,
// and leaves every pixel at 0 (black). It is the reusable-buffer counterpart
// of NewGray for pooled frame buffers.
func (g *Gray) Reset(w, h int) error {
	if w <= 0 || h <= 0 {
		return fmt.Errorf("%w: %dx%d", ErrBadSize, w, h)
	}
	n := w * h
	if cap(g.Pix) < n {
		g.Pix = make([]uint8, n)
	} else {
		g.Pix = g.Pix[:n]
		for i := range g.Pix {
			g.Pix[i] = 0
		}
	}
	g.W, g.H = w, h
	return nil
}

// Resize reslices g to w×h, reusing the pixel buffer when capacity allows,
// WITHOUT clearing — the surviving contents are undefined. It is the cheap
// sibling of Reset for callers about to overwrite every pixel anyway (a
// full-frame Fill or copy).
func (g *Gray) Resize(w, h int) error {
	if w <= 0 || h <= 0 {
		return fmt.Errorf("%w: %dx%d", ErrBadSize, w, h)
	}
	n := w * h
	if cap(g.Pix) < n {
		g.Pix = make([]uint8, n)
	} else {
		g.Pix = g.Pix[:n]
	}
	g.W, g.H = w, h
	return nil
}

// In reports whether (x, y) lies inside the image.
func (g *Gray) In(x, y int) bool { return x >= 0 && x < g.W && y >= 0 && y < g.H }

// Set writes the pixel at (x, y); writes outside the image are ignored.
func (g *Gray) Set(x, y int, v uint8) {
	if g.In(x, y) {
		g.Pix[y*g.W+x] = v
	}
}

// Fill sets every pixel to v.
func (g *Gray) Fill(v uint8) {
	for i := range g.Pix {
		g.Pix[i] = v
	}
}

// Histogram returns the 256-bin intensity histogram.
func (g *Gray) Histogram() [256]int {
	var h [256]int
	for _, p := range g.Pix {
		h[p]++
	}
	return h
}

// FillPolygon rasterises a filled polygon (scanline, even-odd rule) with the
// given intensity. Vertices are in pixel coordinates; the polygon is closed
// implicitly. Degenerate polygons (< 3 vertices) are ignored.
func (g *Gray) FillPolygon(xs, ys []float64, v uint8) {
	n := len(xs)
	if n < 3 || len(ys) != n {
		return
	}
	minY, maxY := ys[0], ys[0]
	for _, y := range ys[1:] {
		if y < minY {
			minY = y
		}
		if y > maxY {
			maxY = y
		}
	}
	y0 := int(math.Floor(minY))
	y1 := int(math.Ceil(maxY))
	if y0 < 0 {
		y0 = 0
	}
	if y1 >= g.H {
		y1 = g.H - 1
	}
	xsect := make([]float64, 0, 8)
	for py := y0; py <= y1; py++ {
		yc := float64(py) + 0.5 // pixel-centre sampling
		xsect = xsect[:0]
		j := n - 1
		for i := 0; i < n; i++ {
			yi, yj := ys[i], ys[j]
			if (yi <= yc && yj > yc) || (yj <= yc && yi > yc) {
				t := (yc - yi) / (yj - yi)
				xsect = append(xsect, xs[i]+t*(xs[j]-xs[i]))
			}
			j = i
		}
		if len(xsect) < 2 {
			continue
		}
		sortFloats(xsect)
		for k := 0; k+1 < len(xsect); k += 2 {
			xa := int(math.Ceil(xsect[k] - 0.5))
			xb := int(math.Floor(xsect[k+1] - 0.5))
			if xa < 0 {
				xa = 0
			}
			if xb >= g.W {
				xb = g.W - 1
			}
			for px := xa; px <= xb; px++ {
				g.Pix[py*g.W+px] = v
			}
		}
	}
}

// FillDisc rasterises a filled disc centred at (cx, cy).
func (g *Gray) FillDisc(cx, cy, r float64, v uint8) {
	if r <= 0 {
		return
	}
	x0 := int(math.Floor(cx - r))
	x1 := int(math.Ceil(cx + r))
	y0 := int(math.Floor(cy - r))
	y1 := int(math.Ceil(cy + r))
	r2 := r * r
	for py := y0; py <= y1; py++ {
		for px := x0; px <= x1; px++ {
			dx := float64(px) + 0.5 - cx
			dy := float64(py) + 0.5 - cy
			if dx*dx+dy*dy <= r2 {
				g.Set(px, py, v)
			}
		}
	}
}

// StrokeLine draws a thick line (a capsule) from (x0,y0) to (x1,y1) with the
// given half-width.
func (g *Gray) StrokeLine(x0, y0, x1, y1, halfWidth float64, v uint8) {
	dx, dy := x1-x0, y1-y0
	length := math.Hypot(dx, dy)
	if length < 1e-9 {
		g.FillDisc(x0, y0, halfWidth, v)
		return
	}
	// Perpendicular offset.
	px, py := -dy/length*halfWidth, dx/length*halfWidth
	g.FillPolygon(
		[]float64{x0 + px, x1 + px, x1 - px, x0 - px},
		[]float64{y0 + py, y1 + py, y1 - py, y0 - py},
		v,
	)
	g.FillDisc(x0, y0, halfWidth, v)
	g.FillDisc(x1, y1, halfWidth, v)
}

// blurScratchPool recycles the two float planes BoxBlur needs; a full-frame
// blur would otherwise allocate ~16 bytes per pixel on every rendered frame.
var blurScratchPool = sync.Pool{New: func() any { return new(blurScratch) }}

type blurScratch struct {
	tmp, cur []float64
}

func (s *blurScratch) ensure(n int) {
	if cap(s.tmp) < n {
		s.tmp = make([]float64, n)
		s.cur = make([]float64, n)
	}
	s.tmp = s.tmp[:n]
	s.cur = s.cur[:n]
}

// BoxBlur applies an iterated box filter with the given radius; three
// iterations approximate a Gaussian. radius <= 0 is a no-op. Scratch planes
// come from an internal pool, so steady-state calls do not allocate.
func (g *Gray) BoxBlur(radius, iterations int) {
	if radius <= 0 || iterations <= 0 {
		return
	}
	scratch := blurScratchPool.Get().(*blurScratch)
	defer blurScratchPool.Put(scratch)
	scratch.ensure(len(g.Pix))
	tmp := scratch.tmp
	cur := scratch.cur
	for i, p := range g.Pix {
		cur[i] = float64(p)
	}
	for it := 0; it < iterations; it++ {
		// Horizontal pass.
		for y := 0; y < g.H; y++ {
			row := y * g.W
			var sum float64
			cnt := 0
			for x := -radius; x <= radius; x++ {
				if x >= 0 && x < g.W {
					sum += cur[row+x]
					cnt++
				}
			}
			for x := 0; x < g.W; x++ {
				tmp[row+x] = sum / float64(cnt)
				if add := x + radius + 1; add < g.W {
					sum += cur[row+add]
					cnt++
				}
				if del := x - radius; del >= 0 {
					sum -= cur[row+del]
					cnt--
				}
			}
		}
		// Vertical pass.
		for x := 0; x < g.W; x++ {
			var sum float64
			cnt := 0
			for y := -radius; y <= radius; y++ {
				if y >= 0 && y < g.H {
					sum += tmp[y*g.W+x]
					cnt++
				}
			}
			for y := 0; y < g.H; y++ {
				cur[y*g.W+x] = sum / float64(cnt)
				if add := y + radius + 1; add < g.H {
					sum += tmp[add*g.W+x]
					cnt++
				}
				if del := y - radius; del >= 0 {
					sum -= tmp[del*g.W+x]
					cnt--
				}
			}
		}
	}
	for i := range g.Pix {
		g.Pix[i] = clampU8(cur[i])
	}
}

// AddGaussianNoise adds zero-mean Gaussian noise with the given standard
// deviation (in intensity units), clamping to [0, 255].
func (g *Gray) AddGaussianNoise(rng *rand.Rand, sigma float64) {
	if sigma <= 0 || rng == nil {
		return
	}
	for i := range g.Pix {
		g.Pix[i] = clampU8(float64(g.Pix[i]) + rng.NormFloat64()*sigma)
	}
}

// AddSaltPepper flips the given fraction of pixels to 0 or 255.
func (g *Gray) AddSaltPepper(rng *rand.Rand, frac float64) {
	if frac <= 0 || rng == nil {
		return
	}
	n := int(frac * float64(len(g.Pix)))
	for i := 0; i < n; i++ {
		idx := rng.Intn(len(g.Pix))
		if rng.Intn(2) == 0 {
			g.Pix[idx] = 0
		} else {
			g.Pix[idx] = 255
		}
	}
}

func clampU8(v float64) uint8 {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return uint8(v + 0.5)
}

// sortFloats is insertion sort: crossing counts per scanline are tiny, and
// avoiding sort.Float64s keeps the hot path allocation-free.
func sortFloats(x []float64) {
	for i := 1; i < len(x); i++ {
		v := x[i]
		j := i - 1
		for j >= 0 && x[j] > v {
			x[j+1] = x[j]
			j--
		}
		x[j+1] = v
	}
}
