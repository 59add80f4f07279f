package vision

import (
	"hdc/internal/raster"
	"hdc/internal/timeseries"
)

// Scratch owns every buffer the §IV vision front half needs — threshold
// mask, packed morphology planes, component labels, contour storage and
// the signature's float planes — so one recognition worker can process an
// unbounded stream of frames without steady-state allocations. A Scratch is
// not safe for concurrent use: give each goroutine its own. (Pooling lives
// one level up: recognizer.Scratch wraps this together with the database
// lookup scratch, so there is a single pool for the whole recognition lane
// rather than one per layer.)
type Scratch struct {
	mask  *Binary // binarised frame, cleaned in place
	morph planes  // packed morphology planes
	comp  *Binary // largest-component mask

	labels  []int32
	parent  []int32
	area    []int32
	contour Contour
	fx, fy  []float64
	arc     []float64
	sig     timeseries.Series
}

// NewScratch returns an empty scratch; buffers grow on first use.
func NewScratch() *Scratch {
	return &Scratch{
		mask: &Binary{},
		comp: &Binary{},
	}
}

// Binarize is OtsuBinarize into the scratch's mask buffer. The returned mask
// is owned by the scratch and valid until its next use.
func (s *Scratch) Binarize(g *raster.Gray) *Binary {
	return OtsuBinarizeInto(s.mask, g)
}

// Clean applies the recogniser's morphological clean-up (open then close,
// radius r) to mask in place: it packs mask once into the scratch's word
// planes, erodes, dilates, dilates and erodes there, and unpacks once. mask
// is typically the scratch's own Binarize output.
func (s *Scratch) Clean(mask *Binary, r int) *Binary {
	return s.morph.run(mask, mask, r, erodeOp, dilateOp, dilateOp, erodeOp)
}

// Open applies the morphological opening (erode then dilate, radius r) to
// mask in place using the scratch's packed planes, and returns mask. It is
// the allocation-free counterpart of the package-level Open for callers (the
// gesture front half) that do not want Clean's hole-filling close pass.
func (s *Scratch) Open(mask *Binary, r int) *Binary {
	return s.morph.run(mask, mask, r, erodeOp, dilateOp)
}

// LargestComponent is the allocation-free variant of the package-level
// LargestComponent: the largest 8-connected foreground region of mask, as a
// mask aliasing scratch storage (valid until the next use of s) plus its
// statistics. It returns ErrEmptyImage when mask has no foreground.
func (s *Scratch) LargestComponent(mask *Binary) (*Binary, Component, error) {
	return s.largestComponent(mask)
}

// ExtractSignatureNorm is the allocation-free variant of the package-level
// ExtractSignatureNorm: largest component, Moore contour, n-sample
// centroid-distance signature under mode. The returned series and contour
// alias scratch storage and are only valid until the next use of s; callers
// that retain them must copy (the recogniser z-normalises into a fresh
// series anyway).
func (s *Scratch) ExtractSignatureNorm(mask *Binary, n int, mode Normalization) (timeseries.Series, Contour, Component, error) {
	blob, comp, err := s.largestComponent(mask)
	if err != nil {
		return nil, nil, Component{}, err
	}
	contour, err := TraceContourInto(blob, Point{comp.FirstPix[0], comp.FirstPix[1]}, s.contour)
	if cap(contour) > cap(s.contour) {
		s.contour = contour
	}
	if err != nil {
		return nil, nil, comp, err
	}
	sig, err := contour.signatureScratch(n, mode, s)
	if err != nil {
		return nil, contour, comp, err
	}
	return sig, contour, comp, nil
}

// grow reslices buf to n elements, reallocating only when short.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// largestComponent is LargestComponent into scratch storage: union-find
// labelling with reused label/parent planes, then a stats pass for the
// winning root only. The returned mask is s.comp.
func (s *Scratch) largestComponent(b *Binary) (*Binary, Component, error) {
	n := b.W * b.H
	s.labels = grow(s.labels, n)
	labels := s.labels
	for i := range labels {
		labels[i] = 0
	}
	parent := append(s.parent[:0], 0) // parent[0] unused; labels start at 1

	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}

	next := int32(1)
	for y := 0; y < b.H; y++ {
		for x := 0; x < b.W; x++ {
			if b.Pix[y*b.W+x] == 0 {
				continue
			}
			var neighbors [4]int32
			cnt := 0
			// Scan previously visited 8-neighbours: W, NW, N, NE.
			if x > 0 && labels[y*b.W+x-1] != 0 {
				neighbors[cnt] = labels[y*b.W+x-1]
				cnt++
			}
			if y > 0 {
				if x > 0 && labels[(y-1)*b.W+x-1] != 0 {
					neighbors[cnt] = labels[(y-1)*b.W+x-1]
					cnt++
				}
				if labels[(y-1)*b.W+x] != 0 {
					neighbors[cnt] = labels[(y-1)*b.W+x]
					cnt++
				}
				if x+1 < b.W && labels[(y-1)*b.W+x+1] != 0 {
					neighbors[cnt] = labels[(y-1)*b.W+x+1]
					cnt++
				}
			}
			if cnt == 0 {
				labels[y*b.W+x] = next
				parent = append(parent, next)
				next++
				continue
			}
			minL := neighbors[0]
			for i := 1; i < cnt; i++ {
				if neighbors[i] < minL {
					minL = neighbors[i]
				}
			}
			labels[y*b.W+x] = minL
			for i := 0; i < cnt; i++ {
				ra, rc := find(minL), find(neighbors[i])
				if ra != rc {
					if ra < rc {
						parent[rc] = ra
					} else {
						parent[ra] = rc
					}
				}
			}
		}
	}
	s.parent = parent

	// Resolve roots and accumulate per-root areas.
	s.area = grow(s.area, len(parent))
	area := s.area
	for i := range area {
		area[i] = 0
	}
	for i, l := range labels {
		if l == 0 {
			continue
		}
		r := find(l)
		labels[i] = r
		area[r]++
	}
	best := int32(0)
	for l := int32(1); l < int32(len(parent)); l++ {
		if area[l] > area[best] {
			best = l
		}
	}
	if best == 0 {
		return nil, Component{}, ErrEmptyImage
	}

	// Stats pass for the winner only, filling the component mask.
	s.comp.resize(b.W, b.H)
	comp := Component{Label: int(best), Area: int(area[best])}
	first := true
	var cenX, cenY float64
	for y := 0; y < b.H; y++ {
		for x := 0; x < b.W; x++ {
			i := y*b.W + x
			if labels[i] != best {
				s.comp.Pix[i] = 0
				continue
			}
			s.comp.Pix[i] = 1
			if first {
				comp.MinX, comp.MaxX = x, x
				comp.MinY, comp.MaxY = y, y
				comp.FirstPix = [2]int{x, y}
				first = false
			} else {
				if x < comp.MinX {
					comp.MinX = x
				}
				if x > comp.MaxX {
					comp.MaxX = x
				}
				if y > comp.MaxY {
					comp.MaxY = y
				}
			}
			cenX += float64(x)
			cenY += float64(y)
		}
	}
	comp.CenX = cenX / float64(comp.Area)
	comp.CenY = cenY / float64(comp.Area)
	return s.comp, comp, nil
}
