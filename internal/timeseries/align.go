package timeseries

import (
	"math"
	"math/bits"
)

// align.go is the prepared-query rotation aligner: the exact
// rotation/mirror distance of MinRotationDistWindowCutoff, computed in
// O(M log M) per candidate instead of O(n²), plus a rotation-invariant
// spectral lower bound that rejects most candidates before any alignment.
//
// Both rest on one bound. For every shift k the aligner's estimate
// est_k = ‖q‖² + ‖e‖² − 2ĉ_k (ĉ_k the FFT cross-correlation) and the direct
// sum ŝ_k (shiftSS, the arithmetic MinRotationDistWindowCutoff performs)
// differ by at most τ = κ(n, M)·P + 2⁻¹⁰⁰⁰, where P is the sum of the squared
// norms of the query and both candidates; the spectral bound lb² likewise
// undercuts every ŝ_k by at most τ. κ is derived in tolerance from the
// floating-point error of each step (DESIGN.md, "The tolerance τ", carries
// the full argument). With τ in hand:
//
//   - a shift can be the direct loop's first minimum only if its estimate is
//     within 2τ of the smallest estimate, so only those shifts are summed,
//     in the direct loop's visit order and under its strict-< and
//     early-abandon rules — the result is bit-identical;
//   - lb² > cutoff² + τ proves every direct sum exceeds cutoff², so the
//     direct loop would return +Inf and the candidate can be skipped.

// specTerms is the number of DFT magnitudes (frequencies 1..specTerms) the
// spectral lower bound compares. Four was the fastest of 2, 4, 8 and 16 in
// a prototype sweep on the sign_store dictionary: more terms prune a little
// more but cost more per candidate than they save.
const specTerms = 4

// rootErr bounds the absolute error of each component of unitRoot's
// computed cos and sin (checked against a 200-bit evaluation by
// TestUnitRootError); it is the twiddle-factor error μ of the FFT bound.
const rootErr = 32 * 0x1p-53

// Aligner is a prepared-query rotation aligner. Prepare it once per query,
// then Align each candidate: the query's spectrum, norms and DFT tables are
// computed once and every per-candidate buffer is reused, so the steady
// state allocates nothing. An Aligner must not be shared between goroutines.
// The zero value is ready for Prepare.
type Aligner struct {
	n, m  int     // series length and FFT length
	kappa float64 // relative error factor of τ (see tolerance)

	q  Series       // the prepared query (borrowed)
	qq float64      // ‖q‖², summed in index order
	qs []complex128 // M-point FFT of q, zero-padded when M > n

	plan fftPlan
	buf  []complex128 // per-candidate transform
	est  []float64    // per-shift distance estimates, one orientation
	mir  Series       // AlignMirror's mirror candidate

	spec SpecTable
	qmag [specTerms]float64
}

// Spectrum is what the spectral bound knows of a series: the magnitudes
// |S_f| of its DFT at f = 1..4 and its squared norm ‖s‖². Rotation and
// mirroring leave both unchanged, so a dictionary computes each entry's
// Spectrum once and bounds every alignment of it against any query.
type Spectrum struct {
	Mag [specTerms]float64
	SS  float64
}

// SpecTable computes Spectra of series of one length with the table-driven
// DFT sums the Aligner's own bound uses, so a Spectrum computed ahead of a
// lookup is bit-identical to the one BoundExceeds computes during it. The
// zero value serves length 0; a table is immutable once built and may be
// shared between goroutines.
type SpecTable struct {
	n int
	// dft[i·2K+2f], dft[i·2K+2f+1] = cos, sin of 2π(f+1)i/n, f < K =
	// specTerms, interleaved per sample; nil when n ≤ 2·specTerms, where
	// frequencies f and n−f coincide and the bound does not apply.
	dft []float64
}

// NewSpecTable builds the DFT table for series of length n.
func NewSpecTable(n int) SpecTable {
	t := SpecTable{n: n}
	if n > 2*specTerms {
		t.dft = make([]float64, 2*specTerms*n)
		for i := 0; i < n; i++ {
			for f := 0; f < specTerms; f++ {
				t.dft[2*(i*specTerms+f)], t.dft[2*(i*specTerms+f)+1] = unitRoot((f+1)*i%n, n)
			}
		}
	}
	return t
}

// Prepare binds the aligner to query q (borrowed until the next Prepare):
// its M-point spectrum, squared norm and low-frequency DFT magnitudes. The
// tables are rebuilt only when the series length changes.
func (al *Aligner) Prepare(q Series) {
	n := len(q)
	if n != al.n || al.m == 0 {
		al.resize(n)
	}
	al.q = q
	al.qq = 0
	for _, x := range q {
		al.qq += x * x
	}
	if n == 0 {
		return
	}
	for j := range al.qs {
		if j < n {
			al.qs[j] = complex(q[j], 0)
		} else {
			al.qs[j] = 0
		}
	}
	al.plan.fft(al.qs)
	al.qmag = al.spec.Of(q).Mag
}

// resize builds the length-dependent tables: M = n when n is a power of two,
// otherwise the smallest power of two ≥ 2n, so a zero-padded query against a
// periodically tiled candidate yields the circular correlation at every
// shift k < n.
func (al *Aligner) resize(n int) {
	m := 1
	if n > 0 {
		m = 1 << bits.Len(uint(n-1))
		if m != n {
			m = 1 << bits.Len(uint(2*n-1))
		}
	}
	al.n, al.m = n, m
	al.kappa = tolerance(n, m)
	al.qs = make([]complex128, m)
	al.buf = make([]complex128, m)
	al.est = make([]float64, n)
	al.mir = make(Series, n)
	al.plan = newFFTPlan(m)
	al.spec = NewSpecTable(n)
}

// unitRoot returns cos and sin of 2πj/n.
func unitRoot(j, n int) (c, s float64) {
	s, c = math.Sincos(2 * math.Pi * float64(j) / float64(n))
	return c, s
}

// fftPlan holds the tables of an M-point FFT: the bit-reversal swaps and
// the twiddles of each butterfly stage laid out contiguously.
type fftPlan struct {
	swaps []int32      // index pairs (i, j), i < j, to exchange
	tw    []complex128 // stage with half-size h at tw[h−1 : 2h−1]: exp(−2πij/2h)
}

// newFFTPlan builds the tables of an m-point FFT, m a power of two. Each
// twiddle is unitRoot(j·M/2h, M), so every stage reads the same values.
func newFFTPlan(m int) fftPlan {
	var p fftPlan
	shift := 65 - bits.Len(uint(m))
	for i := 0; i < m; i++ {
		if j := int(bits.Reverse64(uint64(i)) >> shift); i < j {
			p.swaps = append(p.swaps, int32(i), int32(j))
		}
	}
	p.tw = make([]complex128, max(m-1, 0))
	for h := 1; h < m; h *= 2 {
		for j := 0; j < h; j++ {
			c, s := unitRoot(j*(m/(2*h)), m)
			p.tw[h-1+j] = complex(c, -s)
		}
	}
	return p
}

// fft transforms x (length M) in place by the iterative radix-2
// decimation-in-time Cooley–Tukey algorithm — the algorithm of Higham's
// Theorem 24.2: the bit-reversal permutation, then log₂M butterfly stages.
func (p *fftPlan) fft(x []complex128) {
	for i := 0; i < len(p.swaps); i += 2 {
		a, b := p.swaps[i], p.swaps[i+1]
		x[a], x[b] = x[b], x[a]
	}
	m := len(x)
	h := 1
	if m >= 4 {
		// The first two stages fused: their twiddles are 1 and −i, applied
		// exactly.
		for s := 0; s < m; s += 4 {
			b := x[s : s+4 : s+4]
			s0, s1 := b[0]+b[1], b[0]-b[1]
			s2, s3 := b[2]+b[3], b[2]-b[3]
			t := complex(imag(s3), -real(s3))
			b[0], b[2] = s0+s2, s0-s2
			b[1], b[3] = s1+t, s1-t
		}
		h = 4
	}
	for ; h < m; h *= 2 {
		tw := p.tw[h-1 : 2*h-1]
		for start := 0; start < m; start += 2 * h {
			lo, hi := x[start:start+h], x[start+h:start+2*h]
			lo, hi = lo[:len(tw)], hi[:len(tw)]
			for j, w := range tw {
				a, b := lo[j], hi[j]*w
				lo[j], hi[j] = a+b, a-b
			}
		}
	}
}

// Of returns the Spectrum of s, which must have the table's length: each
// |S_f| a table-driven n-term DFT sum and ‖s‖², all accumulated in index
// order. Below the bound's minimum length only SS is filled in.
func (t *SpecTable) Of(s Series) Spectrum {
	if t.dft == nil {
		var ss float64
		for _, x := range s {
			ss += x * x
		}
		return Spectrum{SS: ss}
	}
	// Unrolled for specTerms = 4: eight named accumulators stay in registers.
	var c1, s1, c2, s2, c3, s3, c4, s4, ss float64
	tab := t.dft[:2*specTerms*len(s)]
	for i, x := range s {
		w := tab[8*i : 8*i+8 : 8*i+8]
		c1 += x * w[0]
		s1 += x * w[1]
		c2 += x * w[2]
		s2 += x * w[3]
		c3 += x * w[4]
		s3 += x * w[5]
		c4 += x * w[6]
		s4 += x * w[7]
		ss += x * x
	}
	return Spectrum{
		Mag: [specTerms]float64{
			math.Sqrt(c1*c1 + s1*s1),
			math.Sqrt(c2*c2 + s2*s2),
			math.Sqrt(c3*c3 + s3*s3),
			math.Sqrt(c4*c4 + s4*s4),
		},
		SS: ss,
	}
}

// tau returns the absolute tolerance τ for candidates whose squared norms,
// together with the query's, sum to p. It is +Inf when p is not finite or
// large enough that the FFT's intermediates (at most M³·p) could overflow;
// every shift is then summed directly.
func (al *Aligner) tau(p float64) float64 {
	m := float64(al.m)
	if !(p*m*m*m < 0x1p1000) {
		return math.Inf(1)
	}
	return al.kappa*p + 0x1p-1000
}

// LowerBound returns the spectral lower bound lb² =
// (2/n)·Σ_{f=1..4}(|Q_f|−|E_f|)² of the prepared query against a series
// with Spectrum es, taken from a table of the query's length: |DFT| does not
// change under rotation or mirroring, so by Parseval lb² undercuts the
// squared distance at every shift of both orientations, up to the rounding
// BoundSlack allows for. It is 0 for series of 8 or fewer samples (where
// frequency f and n−f coincide).
func (al *Aligner) LowerBound(es Spectrum) float64 {
	if al.spec.dft == nil {
		return 0
	}
	var lb2 float64
	for f, m := range es.Mag {
		d := al.qmag[f] - m
		lb2 += d * d
	}
	return lb2 * (2 / float64(al.n))
}

// BoundSlack returns the tolerance τ the spectral bound is compared under
// for a candidate of squared norm ee: lb² > cutoff² + BoundSlack(ee) proves
// that both orientations exceed cutoff at every shift. It is monotone in
// ee, so the slack of the largest ee in a set bounds that of every member.
func (al *Aligner) BoundSlack(ee float64) float64 {
	return al.tau(al.qq + 2*ee)
}

// BoundExceeds reports whether the spectral lower bound proves that no
// rotation of e — nor of its mirror, which has the same DFT magnitudes —
// comes within cutoff of the prepared query: then
// MinRotationDistWindowCutoff returns +Inf for both orientations at every
// shift window, and the candidate cannot enter any result. It reports false
// for series of 8 or fewer samples and for a length mismatch.
func (al *Aligner) BoundExceeds(e Series, cutoff float64) bool {
	if al.spec.dft == nil || len(e) != al.n {
		return false
	}
	es := al.spec.Of(e)
	return al.LowerBound(es) > cutoff*cutoff+al.BoundSlack(es.SS)
}

// Align returns exactly what the direct pair of scans returns: d, s from
// MinRotationDistWindowCutoff(q, e, maxShift, cutoff), then the mirror r
// with cutoff min(cutoff, d), the mirror winning only if strictly closer —
// the same distance bits, shift and mirror flag. r is any series of e's
// length; AlignMirror passes e's mirror.
//
// One forward FFT of e + i·r and one inverse against the query's spectrum
// give the circular cross-correlation of both orientations at every shift;
// the direct sum then runs only where the estimate is within 2τ of the
// smallest (see the file comment), so a typical call sums one or two shifts
// per orientation.
func (al *Aligner) Align(e, r Series, maxShift int, cutoff float64) (best float64, shift int, mirrored bool, err error) {
	n, m := al.n, al.m
	if len(e) != n || len(r) != n {
		return 0, 0, false, ErrLengthMismatch
	}
	if n == 0 {
		return 0, 0, false, ErrEmpty
	}
	var ee, rr float64
	for i, x := range e {
		ee += x * x
		rr += r[i] * r[i]
	}
	for base := 0; base < m; base += n {
		tile := al.buf[base:min(base+n, m)]
		for i := range tile {
			tile[i] = complex(e[i], r[i])
		}
	}
	// Inverse FFT via the conjugate trick: IFFT(x) = conj(FFT(conj(x)))/M,
	// and conj(conj(Q)·Z) = Q·conj(Z). The real part of the result is then
	// M times the forward correlation, the negated imaginary part M times
	// the mirror's.
	al.plan.fft(al.buf)
	qs := al.qs[:len(al.buf)]
	for f, z := range al.buf {
		al.buf[f] = qs[f] * complex(real(z), -imag(z))
	}
	al.plan.fft(al.buf)
	tau := al.tau(al.qq + ee + rr)
	best, shift = al.verify(e, al.qq+ee, false, maxShift, cutoff, tau)
	cutM := cutoff
	if best < cutM {
		cutM = best
	}
	if dRev, sRev := al.verify(r, al.qq+rr, true, maxShift, cutM, tau); dRev < best {
		best, shift, mirrored = dRev, sRev, true
	}
	return best, shift, mirrored, nil
}

// AlignMirror is Align against e's mirror candidate, r[i] = e[−i mod n]
// (see Series.MirrorInto), built in the aligner's own scratch.
func (al *Aligner) AlignMirror(e Series, maxShift int, cutoff float64) (best float64, shift int, mirrored bool, err error) {
	if len(e) != al.n {
		return 0, 0, false, ErrLengthMismatch
	}
	return al.Align(e, e.MirrorInto(al.mir), maxShift, cutoff)
}

// verify runs the direct scan of b against the query over the shifts whose
// estimate est_k = p − 2c_k could be the scan's first minimum below cutoff².
// The correlations c_k come from al.buf: M times the forward orientation's
// in the real parts, minus M times the mirror's in the imaginary parts.
func (al *Aligner) verify(b Series, p float64, mirror bool, maxShift int, cutoff, tau float64) (float64, int) {
	n, scale := al.n, 2/float64(al.m)
	maxShift = shiftBound(n, maxShift)
	buf, est := al.buf[:n], al.est[:n]
	if mirror {
		for k, c := range buf {
			est[k] = p + imag(c)*scale
		}
	} else {
		for k, c := range buf {
			est[k] = p - real(c)*scale
		}
	}
	lowest := math.Inf(1)
	for _, v := range est[:maxShift+1] {
		if v < lowest {
			lowest = v
		}
	}
	for _, v := range est[n-maxShift:] {
		if v < lowest {
			lowest = v
		}
	}
	cutSS := cutoff * cutoff
	hi := lowest + 2*tau
	if c := cutSS + tau; c < hi {
		hi = c
	}
	if lowest > hi {
		// No shift can come within the cutoff. A finite τ implies finite
		// estimates, so no NaN estimate is being passed over.
		return math.Inf(1), 0
	}
	bestSS, shift := minShiftSS(al.q, b, maxShift, cutSS, est, hi)
	return math.Sqrt(bestSS), shift
}

// tolerance returns κ(n, M): τ = κ·P + 2⁻¹⁰⁰⁰ bounds both |est_k − ŝ_k| and
// how far the computed spectral bound can exceed any ŝ_k, for a length-n
// series, FFT length M and P the sum of the squared norms involved (query
// plus both candidate orientations). u = 2⁻⁵³, γ(k) = ku/(1−ku).
//
//   - Direct sum (shiftSS): |ŝ_k − S_k| ≤ γ(n+2)·S_k ≤ 2γ(n+2)·P, with S_k
//     the exact squared distance.
//   - FFT (Higham, Accuracy and Stability of Numerical Algorithms, Thm 24.2):
//     a radix-2 FFT with twiddle error μ ≤ √2·rootErr is accurate to
//     ε₁ = tη/(1−tη) in the 2-norm, η = μ + γ(4)(√2+μ), t = log₂M. The
//     pointwise product adds ε_W = 2ε₁ + ε₁² + √2γ(2)(1+ε₁)², the inverse
//     transform ε₁(1+ε_W), so ‖ĉ−c‖₂ ≤ √M·‖q‖·‖z‖·ε₂ with
//     ε₂ = ε_W + ε₁(1+ε_W). The tiled input has ‖z‖² ≤ ⌈M/n⌉(‖e‖²+‖r‖²),
//     so 2|ĉ_k−c_k| ≤ √(M⌈M/n⌉)·ε₂·P.
//   - Estimate: the norms carry γ(n+1)·P and est's subtraction
//     u(2 + γ(n+1) + √(M⌈M/n⌉)ε₂)·P.
//   - Spectral bound: each |Ê_f| is within ε_a·‖e‖₁ ≤ ε_a√n‖e‖ of |E_f|,
//     ε_a = ε_d + γ(3)(1+ε_d), ε_d = √2(γ(n)(1+rootErr) + rootErr); each
//     difference within ε_D = ε_a + u(1+ε_a), so lb² is within
//     4K·P·(ε_D(2+ε_D) + u(1+ε_D)² + γ(K+1)(1+ε_D)²(1+u)) of the exact bound
//     (K = specTerms), which the direct sum undercuts by at most 2γ(n+2)·P.
//
// κ is twice the sum of the two budgets: the factor 2 absorbs the few
// roundings in computing P, τ itself and the comparisons against it, each
// at most 3u·P. Gradual underflow adds at most 2⁻¹⁰⁷⁵ per rounding, far
// below the 2⁻¹⁰⁰⁰ floor for any M < 2³².
func tolerance(n, m int) float64 {
	const u = 0x1p-53
	gamma := func(k float64) float64 { return k * u / (1 - k*u) }
	nf := float64(n)

	t := float64(bits.Len(uint(m)) - 1)
	mu := math.Sqrt2 * rootErr
	eta := mu + gamma(4)*(math.Sqrt2+mu)
	e1 := t * eta / (1 - t*eta)
	eW := 2*e1 + e1*e1 + math.Sqrt2*gamma(2)*(1+e1)*(1+e1)
	e2 := eW + e1*(1+eW)
	ec := math.Sqrt(float64(m)*float64((m+n-1)/max(n, 1))) * e2
	direct := 2 * gamma(nf+2)
	align := direct + gamma(nf+1) + ec + u*(2+gamma(nf+1)+ec)

	ed := math.Sqrt2 * (gamma(nf)*(1+rootErr) + rootErr)
	ea := ed + gamma(3)*(1+ed)
	eD := ea + u*(1+ea)
	const k = specTerms
	spec := 4*k*(eD*(2+eD)+u*(1+eD)*(1+eD)+gamma(k+1)*(1+eD)*(1+eD)*(1+u)) + direct

	return 2 * (align + spec)
}
