package vision

import "encoding/binary"

// morphology.go implements binary erosion/dilation with a square structuring
// element plus the derived open/close operators used to clean up thresholded
// silhouettes before contour tracing. There is one kernel: the mask is packed
// 64 pixels to a uint64 word, every operator runs on the words, and the
// result is unpacked once. Scratch keeps the packed planes so the recognition
// hot path runs without per-frame allocations.

// resize reslices b to w×h without clearing; callers must write every pixel.
func (b *Binary) resize(w, h int) {
	n := w * h
	if cap(b.Pix) < n {
		b.Pix = make([]uint8, n)
	} else {
		b.Pix = b.Pix[:n]
	}
	b.W, b.H = w, h
}

// morphOp selects a pass of the packed kernel. Its value is XORed into every
// word as the pass reads and writes it: dilation is the erosion of the
// complement, so an outside that counts as background for dilation is the
// all-foreground outside erosion uses.
type morphOp uint64

const (
	erodeOp  morphOp = 0
	dilateOp morphOp = ^morphOp(0)
)

// planes is a mask packed 64 pixels to a word, least significant bit first,
// with g guard words before every row and after the last: pixel x of row y
// is bit x%64 of cur[g+y*stride+x/64], where stride = words+g. A pass sets
// the guard words and the bits past W in a row's last word (pad bits) so that
// everything outside the image reads as foreground in its domain, which lets
// it run over the whole plane as one flat array; g = r/64+1 covers shifts of
// up to r pixels. tmp holds a pass's horizontal result.
type planes struct {
	w, h, words, g, stride int
	cur, tmp               []uint64
}

// run packs src, applies ops at radius r in order and unpacks into dst,
// which may alias src. r <= 0, or an image without pixels, copies src
// unchanged.
func (p *planes) run(dst, src *Binary, r int, ops ...morphOp) *Binary {
	if r <= 0 || len(src.Pix) == 0 {
		return src.CopyInto(dst)
	}
	p.pack(src, r/64+1)
	for _, op := range ops {
		p.pass(r, op)
	}
	p.unpack(dst)
	return dst
}

// morph is the allocating form of planes.run behind the package-level
// operators.
func morph(b *Binary, r int, ops ...morphOp) *Binary {
	var p planes
	return p.run(&Binary{}, b, r, ops...)
}

// Dilate returns b dilated by a (2r+1)×(2r+1) square structuring element.
// Outside the image counts as background.
func Dilate(b *Binary, r int) *Binary { return morph(b, r, dilateOp) }

// Erode returns b eroded by a (2r+1)×(2r+1) square structuring element.
// Outside the image counts as foreground (replicated border, as in OpenCV),
// which keeps Close extensive (Close(b) ⊇ b) everywhere including borders.
func Erode(b *Binary, r int) *Binary { return morph(b, r, erodeOp) }

// Open erodes then dilates: removes speckle smaller than the element.
func Open(b *Binary, r int) *Binary { return morph(b, r, erodeOp, dilateOp) }

// Close dilates then erodes: fills holes/gaps smaller than the element.
func Close(b *Binary, r int) *Binary { return morph(b, r, dilateOp, erodeOp) }

// gather8 packs eight mask bytes, read little-endian into v, into eight bits:
// byte k becomes bit k, set when the byte is nonzero. The OR cascade folds
// each byte onto its low bit; the multiply gathers the low bits into the top
// byte without carries.
func gather8(v uint64) uint64 {
	v |= v >> 4
	v |= v >> 2
	v |= v >> 1
	return (v & 0x0101010101010101) * 0x0102040810204080 >> 56
}

// spread8 is gather8's inverse on 0/1 bytes: entry b holds bit k of b in
// byte k.
var spread8 = func() (t [256]uint64) {
	for b := range t {
		for k := 0; k < 8; k++ {
			t[b] |= uint64(b>>k&1) << (8 * k)
		}
	}
	return t
}()

// pack64 packs 64 mask bytes into one word, eight bytes at a time.
func pack64(src []byte) uint64 {
	_ = src[63]
	le := binary.LittleEndian
	return gather8(le.Uint64(src[0:])) |
		gather8(le.Uint64(src[8:]))<<8 |
		gather8(le.Uint64(src[16:]))<<16 |
		gather8(le.Uint64(src[24:]))<<24 |
		gather8(le.Uint64(src[32:]))<<32 |
		gather8(le.Uint64(src[40:]))<<40 |
		gather8(le.Uint64(src[48:]))<<48 |
		gather8(le.Uint64(src[56:]))<<56
}

// unpack64 writes the 64 pixels of w into dst as 0/1 bytes, eight at a time.
func unpack64(dst []byte, w uint64) {
	_ = dst[63]
	le := binary.LittleEndian
	le.PutUint64(dst[0:], spread8[uint8(w)])
	le.PutUint64(dst[8:], spread8[uint8(w>>8)])
	le.PutUint64(dst[16:], spread8[uint8(w>>16)])
	le.PutUint64(dst[24:], spread8[uint8(w>>24)])
	le.PutUint64(dst[32:], spread8[uint8(w>>32)])
	le.PutUint64(dst[40:], spread8[uint8(w>>40)])
	le.PutUint64(dst[48:], spread8[uint8(w>>48)])
	le.PutUint64(dst[56:], spread8[uint8(w>>56)])
}

// pack sizes the planes to b with g guard words and packs b into cur. A row
// that does not fill its last word goes through a zeroed 64-byte buffer.
func (p *planes) pack(b *Binary, g int) {
	p.w, p.h, p.g = b.W, b.H, g
	p.words = (b.W + 63) / 64
	p.stride = p.words + g
	p.cur = grow(p.cur, g+b.H*p.stride)
	p.tmp = grow(p.tmp, len(p.cur))
	full := b.W / 64
	for y := 0; y < b.H; y++ {
		src := b.Pix[y*b.W : (y+1)*b.W]
		row := p.cur[g+y*p.stride:]
		for j := 0; j < full; j++ {
			row[j] = pack64(src[j*64:])
		}
		if full < p.words {
			var buf [64]byte
			copy(buf[:], src[full*64:])
			row[full] = pack64(buf[:])
		}
	}
}

// unpack writes cur into b as 0/1 bytes.
func (p *planes) unpack(b *Binary) {
	b.resize(p.w, p.h)
	full := p.w / 64
	for y := 0; y < p.h; y++ {
		dst := b.Pix[y*p.w : (y+1)*p.w]
		row := p.cur[p.g+y*p.stride:]
		for j := 0; j < full; j++ {
			unpack64(dst[j*64:], row[j])
		}
		if full < p.words {
			var buf [64]byte
			unpack64(buf[:], row[full])
			copy(dst[full*64:], buf[:])
		}
	}
}

// pass applies one erosion (op erodeOp) or dilation (op dilateOp) of radius
// r to cur, separably: each row is ANDed with itself shifted by ±1…±r
// pixels, then each row is ANDed with rows y−r…y+r that lie in the image.
// Both run in op's domain, where outside the image reads as 1.
func (p *planes) pass(r int, op morphOp) {
	inv, g, stride := uint64(op), p.g, p.stride
	cur, tmp := p.cur, p.tmp
	var pad uint64
	if p.w%64 != 0 {
		pad = ^uint64(0) << (p.w % 64)
	}
	for i := 0; i < g; i++ {
		cur[i] = ^inv
	}
	for y := 0; y < p.h; y++ {
		end := g + y*stride + p.words // first guard word after row y
		cur[end-1] = cur[end-1]&^pad | ^inv&pad
		for i := end; i < end+g; i++ {
			cur[i] = ^inv
		}
	}
	// Horizontal: out[i] is word g+i; rlo/rhi (llo/lhi) hold the 64 pixels
	// d to its right (left).
	out := tmp[g : len(tmp)-g]
	for i, w := range cur[g:][:len(out)] {
		out[i] = w ^ inv
	}
	for d := 1; d <= r; d++ {
		q, s := d/64, uint(d%64)
		rlo, rhi := cur[g+q:][:len(out)], cur[g+q+1:][:len(out)]
		llo, lhi := cur[g-q:][:len(out)], cur[g-q-1:][:len(out)]
		for i := range out {
			out[i] &= (rlo[i]>>s | rhi[i]<<(64-s)) ^ inv
			out[i] &= (llo[i]<<s | lhi[i]>>(64-s)) ^ inv
		}
	}
	// Row y−k of the image is k*stride words back; one that does not exist
	// falls before index 0 (or, for y+k, past the end) and is skipped.
	copy(cur, tmp)
	for k := 1; k <= min(r, p.h-1); k++ {
		off := k * stride
		for i := off; i < len(cur); i++ {
			cur[i] &= tmp[i-off]
		}
		for i := off; i < len(cur); i++ {
			cur[i-off] &= tmp[i]
		}
	}
	if inv != 0 {
		for i := range cur {
			cur[i] ^= inv
		}
	}
}
