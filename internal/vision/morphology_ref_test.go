package vision

// morphology_ref_test.go keeps the byte-per-pixel separable kernels the
// packed morphology replaced, unchanged, as the oracle for the differential
// test and the fuzz target in morphology_test.go.

// refDilateInto dilates src into dst using tmp as scratch for the horizontal
// pass. dst may alias src; tmp must be distinct from both. All buffers are
// resized as needed and dst is returned.
func refDilateInto(dst, src *Binary, r int, tmp *Binary) *Binary {
	if r <= 0 {
		return src.CopyInto(dst)
	}
	// Two-pass separable dilation: horizontal then vertical runs.
	tmp.Reset(src.W, src.H)
	for y := 0; y < src.H; y++ {
		row := y * src.W
		for x := 0; x < src.W; x++ {
			if src.Pix[row+x] == 0 {
				continue
			}
			lo := x - r
			if lo < 0 {
				lo = 0
			}
			hi := x + r
			if hi >= src.W {
				hi = src.W - 1
			}
			for i := lo; i <= hi; i++ {
				tmp.Pix[row+i] = 1
			}
		}
	}
	// src is no longer read, so dst == src is safe from here on.
	dst.Reset(tmp.W, tmp.H)
	for x := 0; x < tmp.W; x++ {
		for y := 0; y < tmp.H; y++ {
			if tmp.Pix[y*tmp.W+x] == 0 {
				continue
			}
			lo := y - r
			if lo < 0 {
				lo = 0
			}
			hi := y + r
			if hi >= tmp.H {
				hi = tmp.H - 1
			}
			for j := lo; j <= hi; j++ {
				dst.Pix[j*tmp.W+x] = 1
			}
		}
	}
	return dst
}

// refErodeInto erodes src into dst using tmp as scratch for the horizontal
// pass. dst may alias src; tmp must be distinct from both. All buffers are
// resized as needed and dst is returned.
func refErodeInto(dst, src *Binary, r int, tmp *Binary) *Binary {
	if r <= 0 {
		return src.CopyInto(dst)
	}
	// Separable erosion via sliding background count: a pixel survives a
	// pass iff its clipped window contains no background. Both passes write
	// every pixel, so the scratch buffers need no clearing.
	tmp.resize(src.W, src.H)
	for y := 0; y < src.H; y++ {
		row := y * src.W
		bg := 0
		for x := 0; x <= r && x < src.W; x++ {
			if src.Pix[row+x] == 0 {
				bg++
			}
		}
		for x := 0; x < src.W; x++ {
			if bg == 0 {
				tmp.Pix[row+x] = 1
			} else {
				tmp.Pix[row+x] = 0
			}
			if add := x + r + 1; add < src.W && src.Pix[row+add] == 0 {
				bg++
			}
			if del := x - r; del >= 0 && src.Pix[row+del] == 0 {
				bg--
			}
		}
	}
	// src is no longer read, so dst == src is safe from here on.
	dst.resize(tmp.W, tmp.H)
	for x := 0; x < tmp.W; x++ {
		bg := 0
		for y := 0; y <= r && y < tmp.H; y++ {
			if tmp.Pix[y*tmp.W+x] == 0 {
				bg++
			}
		}
		for y := 0; y < tmp.H; y++ {
			if bg == 0 {
				dst.Pix[y*tmp.W+x] = 1
			} else {
				dst.Pix[y*tmp.W+x] = 0
			}
			if add := y + r + 1; add < tmp.H && tmp.Pix[add*tmp.W+x] == 0 {
				bg++
			}
			if del := y - r; del >= 0 && tmp.Pix[del*tmp.W+x] == 0 {
				bg--
			}
		}
	}
	return dst
}

// refOpenInto is Open writing into dst with two scratch buffers. dst may alias
// src; tmpA and tmpB must be distinct from each other, dst and src.
func refOpenInto(dst, src *Binary, r int, tmpA, tmpB *Binary) *Binary {
	if r <= 0 {
		return src.CopyInto(dst)
	}
	refErodeInto(tmpB, src, r, tmpA)
	return refDilateInto(dst, tmpB, r, tmpA)
}

// refCloseInto is Close writing into dst with two scratch buffers. dst may alias
// src; tmpA and tmpB must be distinct from each other, dst and src.
func refCloseInto(dst, src *Binary, r int, tmpA, tmpB *Binary) *Binary {
	if r <= 0 {
		return src.CopyInto(dst)
	}
	refDilateInto(tmpB, src, r, tmpA)
	return refErodeInto(dst, tmpB, r, tmpA)
}
