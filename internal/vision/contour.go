package vision

import (
	"errors"
	"fmt"
	"math"

	"hdc/internal/timeseries"
)

// Point is an integer pixel coordinate.
type Point struct {
	X, Y int
}

// Contour is an ordered closed boundary of a region (clockwise in raster
// coordinates).
type Contour []Point

// ErrOpenContour indicates tracing failed to close the boundary (degenerate
// region).
var ErrOpenContour = errors.New("vision: contour did not close")

// mooreOffsets enumerates the 8-neighbourhood clockwise starting from west.
var mooreOffsets = [8]Point{
	{-1, 0}, {-1, -1}, {0, -1}, {1, -1}, {1, 0}, {1, 1}, {0, 1}, {-1, 1},
}

// TraceContourInto extracts the outer boundary of the foreground region
// containing start (which must be the topmost-leftmost foreground pixel of
// its component) using Moore-neighbour tracing with Jacob's stopping
// criterion, appending into buf (reset to length zero first) so
// steady-state callers reuse one backing array. The returned contour
// aliases buf's storage when capacity sufficed. b may hold other
// components besides start's: tracing reads only the 8-neighbours of the
// traced component's pixels, and any foreground 8-neighbour belongs to that
// component, so only start's component is traced.
func TraceContourInto(b *Binary, start Point, buf Contour) (Contour, error) {
	if b.At(start.X, start.Y) == 0 {
		return nil, errors.New("vision: start pixel is background")
	}
	contour := append(buf[:0], start)
	// Entered the start pixel from the west (since it is topmost-leftmost,
	// its west neighbour is background).
	backtrack := 0 // index into mooreOffsets of the background neighbour we came from
	cur := start
	maxSteps := 4 * (b.W*b.H + 1)
	for steps := 0; steps < maxSteps; steps++ {
		found := false
		var next Point
		var nextBacktrack int
		for i := 1; i <= 8; i++ {
			idx := (backtrack + i) % 8
			cand := Point{cur.X + mooreOffsets[idx].X, cur.Y + mooreOffsets[idx].Y}
			if b.At(cand.X, cand.Y) != 0 {
				next = cand
				// New backtrack: the offset of the previous (background)
				// neighbour relative to the new pixel.
				prevIdx := (idx + 7) % 8
				prev := Point{cur.X + mooreOffsets[prevIdx].X, cur.Y + mooreOffsets[prevIdx].Y}
				nextBacktrack = offsetIndex(prev.X-next.X, prev.Y-next.Y)
				found = true
				break
			}
		}
		if !found {
			// Isolated single pixel: its contour is itself.
			return contour, nil
		}
		if next == start && len(contour) > 1 {
			return contour, nil
		}
		contour = append(contour, next)
		cur = next
		backtrack = nextBacktrack
	}
	return nil, ErrOpenContour
}

func offsetIndex(dx, dy int) int {
	for i, o := range mooreOffsets {
		if o.X == dx && o.Y == dy {
			return i
		}
	}
	return 0
}

// Normalization selects the geometric normalisation applied to a contour
// before its centroid-distance signature is measured.
type Normalization int

const (
	// NormNone measures raw pixel-space distances (scale handled later by
	// z-normalisation only).
	NormNone Normalization = iota + 1
	// NormAspect rescales the contour's bounding box to a square. It
	// compensates pure axis-aligned foreshortening (altitude-driven vertical
	// squash, azimuth-driven horizontal squash) but not shear.
	NormAspect
	// NormWhiten applies second-moment whitening: translate to the centroid
	// and transform so the point covariance becomes the identity. A planar
	// signaller viewed from any direction is (to weak-perspective accuracy)
	// an affine transform of the frontal silhouette, and whitening cancels
	// every affine distortion up to rotation — which the SAX matcher's
	// circular-shift search absorbs. This is what lets the paper's single
	// full-on (0°) reference cover the 2–5 m altitude and ±65° azimuth
	// envelope; past ~65° the arm lobes physically merge with the torso
	// (self-occlusion), no linear map can recover them, and recognition
	// turns erratic — the paper's dead angle.
	NormWhiten
)

// signatureScratch is SignatureNorm drawing its float planes and output from
// s when s is non-nil (the returned series then aliases s.sig and is only
// valid until the next use of s).
func (c Contour) signatureScratch(n int, mode Normalization, s *Scratch) (timeseries.Series, error) {
	if len(c) == 0 {
		return nil, ErrEmptyImage
	}
	if n < 1 {
		return nil, errors.New("vision: signature length < 1")
	}
	zeros := func() timeseries.Series {
		if s == nil {
			return make(timeseries.Series, n)
		}
		s.sig = timeseries.Series(grow([]float64(s.sig), n))
		for i := range s.sig {
			s.sig[i] = 0
		}
		return s.sig
	}
	if len(c) == 1 {
		return zeros(), nil
	}
	m := len(c)
	var fx, fy []float64
	if s == nil {
		fx = make([]float64, m)
		fy = make([]float64, m)
	} else {
		s.fx = grow(s.fx, m)
		s.fy = grow(s.fy, m)
		fx, fy = s.fx, s.fy
	}
	for i, p := range c {
		fx[i] = float64(p.X)
		fy[i] = float64(p.Y)
	}
	switch mode {
	case NormAspect:
		normalizeAspect(fx, fy)
	case NormWhiten:
		whiten(fx, fy)
	case NormNone:
		// raw coordinates
	default:
		return nil, fmt.Errorf("vision: unknown normalization %d", int(mode))
	}
	var cx, cy float64
	for i := 0; i < m; i++ {
		cx += fx[i]
		cy += fy[i]
	}
	cx /= float64(m)
	cy /= float64(m)

	// Cumulative arc length per vertex (in the normalised space, so
	// resampling density follows the shape actually being measured).
	var arc []float64
	if s == nil {
		arc = make([]float64, m+1)
	} else {
		s.arc = grow(s.arc, m+1)
		arc = s.arc
	}
	arc[0] = 0
	for i := 0; i < m; i++ {
		j := (i + 1) % m
		arc[i+1] = arc[i] + math.Hypot(fx[j]-fx[i], fy[j]-fy[i])
	}
	total := arc[m]
	if total == 0 {
		return zeros(), nil
	}
	dist := func(i int) float64 {
		return math.Hypot(fx[i]-cx, fy[i]-cy)
	}
	var out timeseries.Series
	if s == nil {
		out = make(timeseries.Series, n)
	} else {
		s.sig = timeseries.Series(grow([]float64(s.sig), n))
		out = s.sig
	}
	seg := 0
	for i := 0; i < n; i++ {
		target := total * float64(i) / float64(n)
		for seg < m && arc[seg+1] < target {
			seg++
		}
		if seg >= m {
			seg = m - 1
		}
		segLen := arc[seg+1] - arc[seg]
		var t float64
		if segLen > 0 {
			t = (target - arc[seg]) / segLen
		}
		da, db := dist(seg), dist((seg+1)%m)
		out[i] = da + (db-da)*t
	}
	return out, nil
}

// normalizeAspect maps the point cloud's bounding box onto the unit square.
func normalizeAspect(fx, fy []float64) {
	minX, maxX := fx[0], fx[0]
	minY, maxY := fy[0], fy[0]
	for i := 1; i < len(fx); i++ {
		minX = math.Min(minX, fx[i])
		maxX = math.Max(maxX, fx[i])
		minY = math.Min(minY, fy[i])
		maxY = math.Max(maxY, fy[i])
	}
	w := maxX - minX
	h := maxY - minY
	if w <= 0 || h <= 0 {
		return
	}
	for i := range fx {
		fx[i] = (fx[i] - minX) / w
		fy[i] = (fy[i] - minY) / h
	}
}

// whiten centres the points and applies Σ^(-1/2) so their covariance becomes
// the identity (up to a degeneracy floor for near-collinear contours).
func whiten(fx, fy []float64) {
	m := float64(len(fx))
	var cx, cy float64
	for i := range fx {
		cx += fx[i]
		cy += fy[i]
	}
	cx /= m
	cy /= m
	var sxx, sxy, syy float64
	for i := range fx {
		dx, dy := fx[i]-cx, fy[i]-cy
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	sxx /= m
	sxy /= m
	syy /= m
	// Eigendecomposition of the symmetric 2×2 covariance.
	tr := sxx + syy
	det := sxx*syy - sxy*sxy
	disc := math.Sqrt(math.Max(0, tr*tr/4-det))
	l1 := tr/2 + disc
	l2 := tr/2 - disc
	const degenerate = 1e-9
	if l1 < degenerate {
		return // pointlike cloud, leave as is
	}
	if l2 < degenerate {
		l2 = degenerate // collinear cloud: cap the stretch
	}
	// Eigenvector for l1.
	var e1x, e1y float64
	if math.Abs(sxy) > 1e-12 {
		e1x, e1y = l1-syy, sxy
	} else if sxx >= syy {
		e1x, e1y = 1, 0
	} else {
		e1x, e1y = 0, 1
	}
	n1 := math.Hypot(e1x, e1y)
	e1x /= n1
	e1y /= n1
	e2x, e2y := -e1y, e1x
	s1 := 1 / math.Sqrt(l1)
	s2 := 1 / math.Sqrt(l2)
	for i := range fx {
		dx, dy := fx[i]-cx, fy[i]-cy
		p := dx*e1x + dy*e1y
		q := dx*e2x + dy*e2y
		p *= s1
		q *= s2
		fx[i] = p*e1x + q*e2x
		fy[i] = p*e1y + q*e2y
	}
}

// ExtractSignatureNorm is the full §IV shape→series step under an explicit
// normalisation: find the largest component of mask, trace its outer
// contour and produce an n-sample centroid-distance signature. It also
// returns the contour and component for diagnostics.
func ExtractSignatureNorm(mask *Binary, n int, mode Normalization) (timeseries.Series, Contour, Component, error) {
	return NewScratch().ExtractSignatureNorm(mask, n, mode)
}
