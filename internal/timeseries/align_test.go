package timeseries

import (
	"encoding/binary"
	"errors"
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// align_test.go pins Aligner to the direct scan it replaces: for every
// input, Align must return the bits, shift and mirror flag of the pair of
// MinRotationDistWindowCutoff calls the lookup cascade made before, and
// BoundExceeds may only fire when that pair returns +Inf.

// directPair is the oracle: the forward scan, then the mirror scan under
// min(cutoff, forward distance), the mirror winning only if strictly closer.
func directPair(t *testing.T, q, e, r Series, win int, cutoff float64) (float64, int, bool) {
	t.Helper()
	d, s, err := MinRotationDistWindowCutoff(q, e, win, cutoff)
	if err != nil {
		t.Fatal(err)
	}
	cutM := cutoff
	if d < cutM {
		cutM = d
	}
	dRev, sRev, err := MinRotationDistWindowCutoff(q, r, win, cutM)
	if err != nil {
		t.Fatal(err)
	}
	if dRev < d {
		return dRev, sRev, true
	}
	return d, s, false
}

// mirrorOf returns the lookup's mirror candidate of e: m[i] = e[−i mod n].
func mirrorOf(e Series) Series {
	return e.Reverse().Rotate(-1)
}

// checkAlign compares Align and, when r is e's mirror, BoundExceeds with
// the direct pair for one (window, cutoff).
func checkAlign(t *testing.T, al *Aligner, q, e, r Series, isMirror bool, win int, cutoff float64) {
	t.Helper()
	wd, ws, wm := directPair(t, q, e, r, win, cutoff)
	gd, gs, gm, err := al.Align(e, r, win, cutoff)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(gd) != math.Float64bits(wd) || gs != ws || gm != wm {
		t.Fatalf("n=%d win=%d cutoff=%v: aligner (%v, %d, %v), direct (%v, %d, %v)",
			len(q), win, cutoff, gd, gs, gm, wd, ws, wm)
	}
	if isMirror && al.BoundExceeds(e, cutoff) && !math.IsInf(wd, 1) {
		t.Fatalf("n=%d win=%d cutoff=%v: spectral bound pruned a candidate the direct scan keeps at %v",
			len(q), win, cutoff, wd)
	}
}

// checkAllCutoffs runs checkAlign over the window and cutoff families: an
// unbounded search, cutoff 0, cutoffs at, just around and below the true
// distance, and a few windows including the full one.
func checkAllCutoffs(t *testing.T, al *Aligner, q, e, r Series, isMirror bool) {
	t.Helper()
	al.Prepare(q)
	n := len(q)
	for _, win := range []int{-1, 0, 1, n / 8, n / 2} {
		exact, _, _ := directPair(t, q, e, r, win, math.Inf(1))
		cutoffs := []float64{math.Inf(1), 0, exact, exact / 2}
		if !math.IsInf(exact, 0) && !math.IsNaN(exact) {
			cutoffs = append(cutoffs, math.Nextafter(exact, 0), math.Nextafter(exact, math.Inf(1)), exact*(1+1e-9))
		}
		for _, c := range cutoffs {
			checkAlign(t, al, q, e, r, isMirror, win, c)
		}
	}
}

// alignFamily builds one query/candidate pair of the named family from a
// deterministic byte source. The families are the adversarial ones for a
// tolerance-based filter: exact ties, exact rotations and reflections,
// degenerate series and near-duplicates.
func alignFamily(family, n, shift int, data []byte) (q, e, r Series, isMirror bool) {
	byteAt := func(i int) float64 {
		if len(data) == 0 {
			return 0
		}
		return float64(int(data[i%len(data)]) - 128)
	}
	q = make(Series, n)
	e = make(Series, n)
	shift = ((shift % n) + n) % n
	switch family % alignFamilies {
	case 0: // independent small integers: many exactly equal differences
		for i := range q {
			q[i], e[i] = byteAt(2*i), byteAt(2*i+1)
		}
	case 1: // periodic with a period dividing n: many exactly tied shifts
		p := 1
		for p*2 <= n && n%(p*2) == 0 && p < 8 {
			p *= 2
		}
		for i := range q {
			q[i] = byteAt(i%p) / 10
			e[i] = byteAt((i+shift)%p) / 10
		}
	case 9: // periodic plus 1e-12 noise: near-ties inside the 2τ window
		q, e, r, isMirror = alignFamily(1, n, shift, data)
		for i := range e {
			e[i] += 1e-12 * byteAt(7*i+3)
		}
		return q, e, mirrorOf(e), isMirror
	case 2: // exact rotation of the query
		for i := range q {
			q[i] = byteAt(i) / 7
		}
		copy(e, q.Rotate(shift))
	case 3: // exact reflection, then rotation
		for i := range q {
			q[i] = byteAt(i) / 7
		}
		copy(e, q.Reverse().Rotate(shift))
	case 4: // constant series
		c := byteAt(0)
		for i := range q {
			q[i], e[i] = c, byteAt(1)
		}
	case 5: // all zero
	case 6: // 1e-9 perturbation of a rotated smooth shape, z-normalised
		rng := rand.New(rand.NewSource(int64(len(data)) + int64(shift)))
		s := smoothShape(rng, n)
		q = s.ZNormalize()
		p := s.Rotate(shift).Clone()
		for i := range p {
			p[i] += 1e-9 * byteAt(i)
		}
		e = p.ZNormalize()
	case 7: // raw float64 bits: huge, tiny, subnormal, Inf and NaN values
		for i := range q {
			q[i] = rawFloat(data, 2*i)
			e[i] = rawFloat(data, 2*i+1)
		}
	case 8: // an unrelated second candidate instead of the mirror
		for i := range q {
			q[i], e[i] = byteAt(3*i)/5, byteAt(3*i+1)/5
		}
		r = make(Series, n)
		for i := range r {
			r[i] = byteAt(3*i + 2)
		}
		return q, e, r, false
	}
	return q, e, mirrorOf(e), true
}

// alignFamilies is the number of families alignFamily builds.
const alignFamilies = 10

// rawFloat reads the i-th little-endian float64 of data, cycling.
func rawFloat(data []byte, i int) float64 {
	if len(data) < 8 {
		return 0
	}
	off := (8 * i) % (len(data) - len(data)%8)
	return math.Float64frombits(binary.LittleEndian.Uint64(data[off:]))
}

// smoothShape draws a band-limited closed-contour signature.
func smoothShape(rng *rand.Rand, n int) Series {
	a1, a2, a3 := rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()
	p1, p2, p3 := rng.Float64()*2*math.Pi, rng.Float64()*2*math.Pi, rng.Float64()*2*math.Pi
	s := make(Series, n)
	for i := range s {
		t := 2 * math.Pi * float64(i) / float64(n)
		s[i] = 1 + 0.6*a1*math.Cos(t+p1) + 0.4*a2*math.Cos(2*t+p2) + 0.3*a3*math.Cos(3*t+p3) +
			0.05*rng.NormFloat64()
	}
	return s
}

// alignLengths are the series lengths the seeds cover: powers of two (M =
// n) and lengths that need padding and tiling (M ≥ 2n).
var alignLengths = []int{16, 96, 100, 128, 256}

func TestAlignerMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	var al Aligner // one aligner across lengths: Prepare must rebuild its tables
	for _, n := range append([]int{1, 2, 3, 5, 8, 9}, alignLengths...) {
		for family := 0; family < alignFamilies; family++ {
			for trial := 0; trial < 3; trial++ {
				data := make([]byte, 16*n)
				rng.Read(data)
				q, e, r, isMirror := alignFamily(family, n, rng.Intn(n), data)
				checkAllCutoffs(t, &al, q, e, r, isMirror)
			}
		}
		// Smooth z-normalised shapes, the lookup's own family.
		for trial := 0; trial < 5; trial++ {
			q := smoothShape(rng, n).ZNormalize()
			e := smoothShape(rng, n).ZNormalize()
			checkAllCutoffs(t, &al, q, e, mirrorOf(e), true)
		}
	}
}

func TestAlignerErrors(t *testing.T) {
	var al Aligner
	al.Prepare(Series{1, 2, 3})
	if _, _, _, err := al.Align(Series{1, 2}, Series{1, 2}, -1, math.Inf(1)); !errors.Is(err, ErrLengthMismatch) {
		t.Fatalf("length mismatch: got %v", err)
	}
	if _, _, _, err := al.Align(Series{1, 2, 3}, Series{1, 2}, -1, math.Inf(1)); !errors.Is(err, ErrLengthMismatch) {
		t.Fatalf("mirror length mismatch: got %v", err)
	}
	al.Prepare(nil)
	if _, _, _, err := al.Align(nil, nil, -1, math.Inf(1)); !errors.Is(err, ErrEmpty) {
		t.Fatalf("empty: got %v", err)
	}
	if al.BoundExceeds(Series{1}, 0) {
		t.Fatal("bound fired on a length mismatch")
	}
}

// TestPrecomputedSpectrumMatchesBound holds the lookup's split of the
// spectral bound — a Spectrum computed once per entry by its own SpecTable,
// then LowerBound and BoundSlack per query — to BoundExceeds, and AlignMirror
// (the h form at M = n) to the whole transform of e and the mirror built by
// MirrorInto.
func TestPrecomputedSpectrumMatchesBound(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	var al Aligner
	for _, n := range append([]int{1, 2, 8, 9}, alignLengths...) {
		tab := NewSpecTable(n)
		for trial := 0; trial < 5; trial++ {
			q := smoothShape(rng, n).ZNormalize()
			e := smoothShape(rng, n).ZNormalize()
			if trial == 0 {
				e = q.Reverse().Rotate(rng.Intn(n))
			}
			al.Prepare(q)
			m := e.MirrorInto(nil)
			for i, v := range mirrorOf(e) {
				if math.Float64bits(m[i]) != math.Float64bits(v) {
					t.Fatalf("n=%d: MirrorInto[%d] = %v, want %v", n, i, m[i], v)
				}
			}
			es := tab.Of(e)
			exact, _, _ := directPair(t, q, e, m, -1, math.Inf(1))
			for _, c := range []float64{math.Inf(1), 0, exact, exact / 2, exact / 4} {
				if got, want := al.LowerBound(&es) > c*c+al.BoundSlack(es.SS), al.BoundExceeds(e, c); got != want {
					t.Fatalf("n=%d cutoff=%v: precomputed bound prunes %v, BoundExceeds %v", n, c, got, want)
				}
				for _, win := range []int{-1, n / 8} {
					gd, gs, gm, err := al.AlignMirror(e, win, c)
					if err != nil {
						t.Fatal(err)
					}
					wd, ws, wm, err := al.alignWhole(e, m, win, c)
					if err != nil {
						t.Fatal(err)
					}
					if math.Float64bits(gd) != math.Float64bits(wd) || gs != ws || gm != wm {
						t.Fatalf("n=%d win=%d cutoff=%v: AlignMirror (%v, %d, %v), Align (%v, %d, %v)", n, win, c, gd, gs, gm, wd, ws, wm)
					}
				}
			}
		}
	}
	al.Prepare(Series{1, 2, 3})
	if _, _, _, err := al.AlignMirror(Series{1, 2}, -1, math.Inf(1)); !errors.Is(err, ErrLengthMismatch) {
		t.Fatalf("AlignMirror length mismatch: got %v", err)
	}
}

// TestSpectrumMatchesDFT holds SpecTable.Of, which pairs sample i with
// n−i, to the plain n-term DFT sum over the same twiddles: each magnitude
// within the ε_a·√n·‖s‖ the spectral bound's tolerance allows each of them
// (so within twice that of each other), at even and odd lengths.
func TestSpectrumMatchesDFT(t *testing.T) {
	const u = 0x1p-53
	gamma := func(k float64) float64 { return k * u / (1 - k*u) }
	rng := rand.New(rand.NewSource(41))
	for _, n := range []int{33, 34, 64, 96, 100, 128, 129, 256, 300} {
		tab := NewSpecTable(n)
		nf := float64(n)
		ed := math.Sqrt2 * (gamma(nf)*(1+rootErr) + rootErr)
		ea := ed + gamma(3)*(1+ed)
		for trial := 0; trial < 20; trial++ {
			s := smoothShape(rng, n)
			if trial%2 == 1 {
				for i := range s {
					s[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
				}
			}
			sp := tab.Of(s)
			norm := math.Sqrt(sp.SS)
			for f := range sp.Mag {
				var c, sn float64
				for i, x := range s {
					wc, ws := unitRoot((f+1)*i%n, n)
					c += x * wc
					sn += x * ws
				}
				want := math.Sqrt(c*c + sn*sn)
				if d := math.Abs(sp.Mag[f] - want); d > 2*ea*math.Sqrt(nf)*norm {
					t.Fatalf("n=%d trial=%d f=%d: |S_f| = %v, plain DFT %v (off by %g, allowed %g)",
						n, trial, f+1, sp.Mag[f], want, d, 2*ea*math.Sqrt(nf)*norm)
				}
			}
		}
	}
}

// TestTransformServesLaterQueries pins the cache contract: a Transform
// formed once, by an aligner prepared for another query, serves every later
// query of its length on any aligner with the direct pair's exact answer.
func TestTransformServesLaterQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for _, n := range alignLengths {
		var former, al Aligner
		former.Prepare(smoothShape(rng, n).ZNormalize())
		e := smoothShape(rng, n).ZNormalize()
		tr, err := former.Transform(e)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 8; trial++ {
			q := smoothShape(rng, n).ZNormalize()
			if trial%2 == 0 {
				q = e.Rotate(rng.Intn(n)).Clone()
				if trial%4 == 0 {
					q = mirrorOf(e).Rotate(rng.Intn(n)).Clone()
				}
				for i := range q {
					q[i] += 1e-3 * rng.NormFloat64()
				}
			}
			al.Prepare(q)
			for _, win := range []int{-1, n / 8} {
				wd, ws, wm := directPair(t, q, e, mirrorOf(e), win, math.Inf(1))
				gd, gs, gm, err := al.AlignTransform(e, tr, win, math.Inf(1))
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(gd) != math.Float64bits(wd) || gs != ws || gm != wm {
					t.Fatalf("n=%d trial=%d win=%d: cached (%v, %d, %v), direct (%v, %d, %v)", n, trial, win, gd, gs, gm, wd, ws, wm)
				}
			}
		}
	}
}

// TestSpectralBoundPrunes checks that the bound does its job on the
// lookup's shape family: unrelated shapes are pruned at a cutoff well below
// their distance.
func TestSpectralBoundPrunes(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var al Aligner
	pruned := 0
	for trial := 0; trial < 200; trial++ {
		q := smoothShape(rng, 128).ZNormalize()
		e := smoothShape(rng, 128).ZNormalize()
		al.Prepare(q)
		d, _, _ := directPair(t, q, e, mirrorOf(e), -1, math.Inf(1))
		if al.BoundExceeds(e, d/4) {
			pruned++
		}
	}
	if pruned < 50 {
		t.Fatalf("spectral bound pruned %d of 200 unrelated shapes at a quarter of their distance", pruned)
	}
}

// TestUnitRootError checks the premise of the FFT error bound: every
// cos/sin table entry is within rootErr of the true value, evaluated with
// 200-bit Taylor series.
func TestUnitRootError(t *testing.T) {
	const prec = 200
	pi, _, err := big.ParseFloat("3.14159265358979323846264338327950288419716939937510582097494459230781640628620899862803482534211706798214808651", 10, prec, big.ToNearestEven)
	if err != nil {
		t.Fatal(err)
	}
	// sinCos evaluates the Taylor series of sin and cos at x = 2πj/n.
	sinCos := func(j, n int) (float64, float64) {
		x := new(big.Float).SetPrec(prec).Mul(pi, big.NewFloat(float64(2*j)))
		x.Quo(x, new(big.Float).SetPrec(prec).SetInt64(int64(n)))
		sin := new(big.Float).SetPrec(prec)
		cos := new(big.Float).SetPrec(prec)
		term := new(big.Float).SetPrec(prec).SetInt64(1) // x^k/k!
		for k := 0; k < 120; k++ {
			switch k % 4 {
			case 0:
				cos.Add(cos, term)
			case 1:
				sin.Add(sin, term)
			case 2:
				cos.Sub(cos, term)
			case 3:
				sin.Sub(sin, term)
			}
			term.Mul(term, x)
			term.Quo(term, new(big.Float).SetPrec(prec).SetInt64(int64(k+1)))
		}
		s, _ := sin.Float64()
		c, _ := cos.Float64()
		return s, c
	}
	var worst float64
	for _, n := range []int{9, 16, 96, 100, 128, 200, 256, 512} {
		for j := 0; j < n; j++ {
			c, s := unitRoot(j, n)
			ws, wc := sinCos(j, n)
			worst = math.Max(worst, math.Max(math.Abs(c-wc), math.Abs(s-ws)))
		}
	}
	if worst > rootErr {
		t.Fatalf("unit root error %g exceeds rootErr %g", worst, float64(rootErr))
	}
	t.Logf("worst unit-root error %.2g (rootErr %.2g)", worst, float64(rootErr))
}

// FuzzRotationAlign drives the aligner against the direct scan over
// arbitrary lengths, families, shifts, windows and cutoffs. The seeds cover
// every family at every length in alignLengths.
func FuzzRotationAlign(f *testing.F) {
	rng := rand.New(rand.NewSource(31))
	for _, n := range alignLengths {
		for family := 0; family < alignFamilies; family++ {
			data := make([]byte, 64)
			rng.Read(data)
			f.Add(uint16(n), uint8(family), uint16(rng.Intn(n)), int16(-1), uint8(family%4), data)
			f.Add(uint16(n), uint8(family), uint16(rng.Intn(n)), int16(n*15/100), uint8(family%4), data)
		}
	}
	f.Fuzz(func(t *testing.T, n uint16, family uint8, shift uint16, win int16, cut uint8, data []byte) {
		size := int(n)%300 + 1
		q, e, r, isMirror := alignFamily(int(family), size, int(shift), data)
		var al Aligner
		al.Prepare(q)
		exact, _, _ := directPair(t, q, e, r, int(win), math.Inf(1))
		cutoff := math.Inf(1)
		switch cut % 4 {
		case 1:
			cutoff = 0
		case 2:
			cutoff = exact
		case 3:
			cutoff = exact * float64(cut) / 256
		}
		checkAlign(t, &al, q, e, r, isMirror, int(win), cutoff)
	})
}

// BoundExceeds reports whether the spectral lower bound proves that no
// rotation of e — nor of its mirror, which has the same DFT magnitudes —
// comes within cutoff of the prepared query: the per-query form of the
// precomputed bound the lookup cascade prunes with. It reports false for
// series of 8 or fewer samples and for a length mismatch.
func (al *Aligner) BoundExceeds(e Series, cutoff float64) bool {
	if al.spec.dft == nil || len(e) != al.n {
		return false
	}
	es := al.spec.Of(e)
	return al.LowerBound(&es) > cutoff*cutoff+al.BoundSlack(es.SS)
}

// AlignMirror is the served exact path on one candidate: Transform, then
// AlignTransform.
func (al *Aligner) AlignMirror(e Series, maxShift int, cutoff float64) (best float64, shift int, mirrored bool, err error) {
	t, err := al.Transform(e)
	if err != nil {
		return 0, 0, false, err
	}
	return al.AlignTransform(e, t, maxShift, cutoff)
}

// Align is the aligner against an arbitrary second candidate r of e's
// length, with the contract of AlignTransform: r is scanned second under
// min(cutoff, d) and wins only if strictly closer. When r is e's mirror it
// is the served path, AlignMirror; otherwise the pair's M-point transform is
// formed whole, which exercises the tiled form at M = n too.
func (al *Aligner) Align(e, r Series, maxShift int, cutoff float64) (best float64, shift int, mirrored bool, err error) {
	if len(e) != al.n || len(r) != al.n {
		return 0, 0, false, ErrLengthMismatch
	}
	if al.n == 0 {
		return 0, 0, false, ErrEmpty
	}
	isMirror := true
	for i, x := range e.MirrorInto(nil) {
		isMirror = isMirror && math.Float64bits(x) == math.Float64bits(r[i])
	}
	if isMirror {
		return al.AlignMirror(e, maxShift, cutoff)
	}
	return al.alignWhole(e, r, maxShift, cutoff)
}

// alignWhole is Align through the whole M-point transform of e + i·r.
func (al *Aligner) alignWhole(e, r Series, maxShift int, cutoff float64) (best float64, shift int, mirrored bool, err error) {
	var ee, rr float64
	for i, x := range e {
		ee += x * x
		rr += r[i] * r[i]
	}
	t := &Transform{z: make([]complex128, al.m)}
	al.pairTransform(e, r, t.z)
	al.correlate(t)
	best, shift, mirrored = al.alignPair(e, r, ee, rr, maxShift, cutoff)
	return best, shift, mirrored, nil
}
