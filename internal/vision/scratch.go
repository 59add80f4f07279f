package vision

import (
	"hdc/internal/raster"
	"hdc/internal/timeseries"
)

// Scratch owns every buffer the §IV vision front half needs — threshold
// mask, packed morphology planes, the run table of component labelling,
// contour storage and the signature's float planes — so one recognition
// worker can process an unbounded stream of frames without steady-state
// allocations. A Scratch is not safe for concurrent use: give each goroutine
// its own. (Pooling lives one level up: recognizer.Scratch wraps this
// together with the database lookup scratch, so there is a single pool for
// the whole recognition lane rather than one per layer.)
type Scratch struct {
	mask  *Binary  // binarised frame, cleaned in place
	morph planes   // packed planes of morphology, then of labelling
	lab   labeller // runs and components of the last labelling
	comp  *Binary  // largest-component mask

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

// LargestComponent extracts the largest 8-connected foreground region of
// mask without allocating: the region as a mask aliasing scratch storage
// (valid until the next use of s) plus its statistics. It returns
// ErrEmptyImage when mask has no foreground.
func (s *Scratch) LargestComponent(mask *Binary) (*Binary, Component, error) {
	best, comp, err := s.largest(mask)
	if err != nil {
		return nil, Component{}, err
	}
	s.comp.Reset(mask.W, mask.H)
	s.lab.paint(s.comp, int32(best))
	return s.comp, comp, nil
}

// ExtractSignatureNorm is the allocation-free variant of the package-level
// ExtractSignatureNorm: largest component, Moore contour, n-sample
// centroid-distance signature under mode. The returned series and contour
// alias scratch storage and are only valid until the next use of s; callers
// that retain them must copy (the recogniser z-normalises into a fresh
// series anyway). The contour is traced on mask itself: tracing reads only
// the 8-neighbours of the component's own pixels, so other components never
// enter it and no component mask is built.
func (s *Scratch) ExtractSignatureNorm(mask *Binary, n int, mode Normalization) (timeseries.Series, Contour, Component, error) {
	_, comp, err := s.largest(mask)
	if err != nil {
		return nil, nil, Component{}, err
	}
	contour, err := TraceContourInto(mask, Point{comp.FirstPix[0], comp.FirstPix[1]}, s.contour)
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

// largest labels mask's runs in the scratch's planes and returns the index
// and statistics of its largest component, ties going to the one whose first
// pixel comes first in raster order, or ErrEmptyImage.
func (s *Scratch) largest(mask *Binary) (int, Component, error) {
	s.lab.label(&s.morph, mask)
	blobs := s.lab.blobs
	if len(blobs) == 0 {
		return 0, Component{}, ErrEmptyImage
	}
	best := 0
	for i := range blobs {
		if blobs[i].area > blobs[best].area {
			best = i
		}
	}
	return best, blobs[best].component(best + 1), nil
}
