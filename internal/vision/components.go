package vision

import (
	"math/bits"
	"sort"
)

// components.go implements 8-connected component labelling on runs: the mask
// is packed 64 pixels to a word (planes.pack), each row is split into runs of
// foreground a word at a time, and runs that touch a run of the row above
// are unioned. The work grows with the number of runs, not of pixels, so a
// silhouette covering a few percent of the frame costs a few percent of a
// per-pixel labeller. This is the run-based two-scan scheme of He, Chao and
// Suzuki (IEEE TIP 2008).

// Component is one 8-connected foreground region.
type Component struct {
	// Label is the component's 1-based rank by FirstPix in raster order.
	Label    int
	Area     int
	MinX     int
	MinY     int
	MaxX     int
	MaxY     int
	CenX     float64
	CenY     float64
	FirstPix [2]int // topmost-leftmost pixel; contour tracing starts here
}

// run is a maximal horizontal stretch of foreground, columns x0..x1
// inclusive of row y. comp is its union-find parent while labelling and its
// component's index afterwards.
type run struct {
	x0, x1, y, comp int32
}

// blob accumulates one component's statistics over its runs. (x0, y0) is the
// first pixel of its first run, which is the component's topmost-leftmost
// pixel.
type blob struct {
	area, sx, sy     int64
	x0, y0           int32
	minX, maxX, maxY int32
}

// component converts b into the exported statistics under label. The sums
// are of integer coordinates, so they equal a per-pixel float64 sum exactly.
func (b *blob) component(label int) Component {
	return Component{
		Label:    label,
		Area:     int(b.area),
		MinX:     int(b.minX),
		MinY:     int(b.y0),
		MaxX:     int(b.maxX),
		MaxY:     int(b.maxY),
		CenX:     float64(b.sx) / float64(b.area),
		CenY:     float64(b.sy) / float64(b.area),
		FirstPix: [2]int{int(b.x0), int(b.y0)},
	}
}

// labeller is the run table of one labelling: every run of the mask in
// raster order, and one blob per component in raster order of first pixel.
type labeller struct {
	runs  []run
	blobs []blob
}

// label packs mask into p and labels its 8-connected components, filling
// l.runs and l.blobs.
func (l *labeller) label(p *planes, mask *Binary) {
	p.pack(mask, 1)
	l.runs = l.runs[:0]
	prev := 0 // first run of the row above
	for y := 0; y < p.h; y++ {
		cur := len(l.runs)
		l.appendRuns(p.cur[p.g+y*p.stride:][:p.words], int32(y))
		// Union each run with the runs above it that overlap it or touch it
		// diagonally. Runs of a row are sorted and disjoint, so one pointer
		// into the row above serves the whole row.
		up := prev
		for i := cur; i < len(l.runs); i++ {
			r := l.runs[i]
			for up < cur && l.runs[up].x1+1 < r.x0 {
				up++
			}
			for j := up; j < cur && l.runs[j].x0 <= r.x1+1; j++ {
				l.union(int32(i), int32(j))
			}
		}
		prev = cur
	}
	l.resolve()
}

// appendRuns appends the runs of one packed row. starts and ends mark the
// first and last pixel of each run within a word; a run still open at the
// end of a word continues into the next.
func (l *labeller) appendRuns(row []uint64, y int32) {
	var carry uint64 // bit 63 of the previous word
	var x0 int32
	for j, w := range row {
		if w == 0 {
			carry = 0
			continue
		}
		var next uint64
		if j+1 < len(row) {
			next = row[j+1]
		}
		starts := w &^ (w<<1 | carry)
		ends := w &^ (w>>1 | next<<63)
		carry = w >> 63
		base := int32(j * 64)
		for starts|ends != 0 {
			if starts != 0 && (ends == 0 || bits.TrailingZeros64(starts) <= bits.TrailingZeros64(ends)) {
				x0 = base + int32(bits.TrailingZeros64(starts))
				starts &= starts - 1
			}
			if ends == 0 {
				break
			}
			x1 := base + int32(bits.TrailingZeros64(ends))
			ends &= ends - 1
			id := int32(len(l.runs))
			l.runs = append(l.runs, run{x0: x0, x1: x1, y: y, comp: id})
		}
	}
}

// find returns the root of run i, halving the path on the way.
func (l *labeller) find(i int32) int32 {
	runs := l.runs
	for runs[i].comp != i {
		runs[i].comp = runs[runs[i].comp].comp
		i = runs[i].comp
	}
	return i
}

// union merges the components of runs a and b under the smaller root, so
// every root is the first run of its component in raster order.
func (l *labeller) union(a, b int32) {
	ra, rb := l.find(a), l.find(b)
	if ra < rb {
		l.runs[rb].comp = ra
	} else if rb < ra {
		l.runs[ra].comp = rb
	}
}

// resolve replaces each run's parent with its component index and
// accumulates the blobs. A parent never follows its child, so walking the
// runs in order finds every parent already resolved.
func (l *labeller) resolve() {
	l.blobs = l.blobs[:0]
	for i := range l.runs {
		r := &l.runs[i]
		if r.comp == int32(i) {
			r.comp = int32(len(l.blobs))
			l.blobs = append(l.blobs, blob{x0: r.x0, y0: r.y, minX: r.x0, maxX: r.x1, maxY: r.y})
		} else {
			r.comp = l.runs[r.comp].comp
		}
		b := &l.blobs[r.comp]
		n := int64(r.x1 - r.x0 + 1)
		b.area += n
		b.sx += int64(r.x0+r.x1) * n / 2
		b.sy += int64(r.y) * n
		b.minX = min(b.minX, r.x0)
		b.maxX = max(b.maxX, r.x1)
		b.maxY = r.y
	}
}

// paint writes 1 into every pixel of out (sized like the labelled mask) that
// belongs to component c.
func (l *labeller) paint(out *Binary, c int32) {
	for _, r := range l.runs {
		if r.comp == c {
			row := out.Pix[int(r.y)*out.W:]
			for x := r.x0; x <= r.x1; x++ {
				row[x] = 1
			}
		}
	}
}

// LabelComponents performs 8-connected component labelling and returns the
// label image plus per-component statistics sorted by area descending, ties
// by label. Labels number the components 1, 2, … in raster order of their
// first pixel; background is 0.
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

// LargestComponent extracts the largest 8-connected foreground region as its
// own mask. It returns ErrEmptyImage when there is no foreground.
func LargestComponent(b *Binary) (*Binary, Component, error) {
	return NewScratch().LargestComponent(b)
}
