package vision

import "sort"

// components_ref_test.go keeps the pixel union-find labellers the run-based
// labeller replaced, unchanged apart from their names, as the oracle for the
// differential test and the fuzz target in components_test.go.

// refScratch holds the buffers of the pooled pixel labeller: a W×H label
// plane, the union-find parents and the per-label areas.
type refScratch struct {
	comp   *Binary
	labels []int32
	parent []int32
	area   []int32
}

// refLabelComponents performs 8-connected component labelling (two-pass
// union-find) and returns the label image plus per-component statistics
// sorted by area descending.
func refLabelComponents(b *Binary) (labels []int32, comps []Component) {
	labels = make([]int32, len(b.Pix))
	parent := []int32{0} // parent[0] unused; labels start at 1

	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, c int32) {
		ra, rc := find(a), find(c)
		if ra != rc {
			if ra < rc {
				parent[rc] = ra
			} else {
				parent[ra] = rc
			}
		}
	}

	next := int32(1)
	for y := 0; y < b.H; y++ {
		for x := 0; x < b.W; x++ {
			if b.Pix[y*b.W+x] == 0 {
				continue
			}
			var neighbors [4]int32
			n := 0
			// Scan previously visited 8-neighbours: W, NW, N, NE.
			if x > 0 && labels[y*b.W+x-1] != 0 {
				neighbors[n] = labels[y*b.W+x-1]
				n++
			}
			if y > 0 {
				if x > 0 && labels[(y-1)*b.W+x-1] != 0 {
					neighbors[n] = labels[(y-1)*b.W+x-1]
					n++
				}
				if labels[(y-1)*b.W+x] != 0 {
					neighbors[n] = labels[(y-1)*b.W+x]
					n++
				}
				if x+1 < b.W && labels[(y-1)*b.W+x+1] != 0 {
					neighbors[n] = labels[(y-1)*b.W+x+1]
					n++
				}
			}
			if n == 0 {
				labels[y*b.W+x] = next
				parent = append(parent, next)
				next++
				continue
			}
			minL := neighbors[0]
			for i := 1; i < n; i++ {
				if neighbors[i] < minL {
					minL = neighbors[i]
				}
			}
			labels[y*b.W+x] = minL
			for i := 0; i < n; i++ {
				union(minL, neighbors[i])
			}
		}
	}

	// Second pass: resolve labels, gather stats.
	statsByRoot := map[int32]*Component{}
	for y := 0; y < b.H; y++ {
		for x := 0; x < b.W; x++ {
			l := labels[y*b.W+x]
			if l == 0 {
				continue
			}
			root := find(l)
			labels[y*b.W+x] = root
			c := statsByRoot[root]
			if c == nil {
				c = &Component{
					Label: int(root),
					MinX:  x, MinY: y, MaxX: x, MaxY: y,
					FirstPix: [2]int{x, y},
				}
				statsByRoot[root] = c
			}
			c.Area++
			c.CenX += float64(x)
			c.CenY += float64(y)
			if x < c.MinX {
				c.MinX = x
			}
			if x > c.MaxX {
				c.MaxX = x
			}
			if y < c.MinY {
				c.MinY = y
			}
			if y > c.MaxY {
				c.MaxY = y
			}
		}
	}
	comps = make([]Component, 0, len(statsByRoot))
	for _, c := range statsByRoot {
		c.CenX /= float64(c.Area)
		c.CenY /= float64(c.Area)
		comps = append(comps, *c)
	}
	sort.Slice(comps, func(i, j int) bool {
		if comps[i].Area != comps[j].Area {
			return comps[i].Area > comps[j].Area
		}
		return comps[i].Label < comps[j].Label
	})
	return labels, comps
}

// refLargestComponent extracts the largest 8-connected foreground region as its
// own mask. It returns ErrEmptyImage when there is no foreground.
func refLargestComponent(b *Binary) (*Binary, Component, error) {
	labels, comps := refLabelComponents(b)
	if len(comps) == 0 {
		return nil, Component{}, ErrEmptyImage
	}
	best := comps[0]
	out := NewBinary(b.W, b.H)
	target := int32(best.Label)
	for i, l := range labels {
		if l == target {
			out.Pix[i] = 1
		}
	}
	return out, best, nil
}

// largestComponent is refLargestComponent into scratch storage: union-find
// labelling with reused label/parent planes, then a stats pass for the
// winning root only. The returned mask is s.comp.
func (s *refScratch) largestComponent(b *Binary) (*Binary, Component, error) {
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
