package timeseries

import "math"

// EuclideanDist returns the Euclidean distance between equal-length series.
// Mismatched lengths are not silently accepted: callers get
// ErrLengthMismatch, never a quiet +Inf.
func EuclideanDist(a, b Series) (float64, error) {
	if len(a) != len(b) {
		return 0, ErrLengthMismatch
	}
	var ss float64
	for i := range a {
		d := a[i] - b[i]
		ss += d * d
	}
	return math.Sqrt(ss), nil
}

// EuclideanDistShifted returns the Euclidean distance between a and b
// circularly shifted left by k positions (k may be negative or exceed len),
// without materialising the rotation — the allocation-free equivalent of
// EuclideanDist(a, b.Rotate(k)). Mismatched lengths return ErrLengthMismatch.
func EuclideanDistShifted(a, b Series, k int) (float64, error) {
	if len(a) != len(b) {
		return 0, ErrLengthMismatch
	}
	n := len(a)
	if n == 0 {
		return 0, nil
	}
	k = ((k % n) + n) % n
	var ss float64
	for i := range a {
		j := i + k
		if j >= n {
			j -= n
		}
		d := a[i] - b[j]
		ss += d * d
	}
	return math.Sqrt(ss), nil
}

// MinRotationDist returns the minimum Euclidean distance between a and every
// circular rotation of b, together with the minimising shift (the number of
// positions b was rotated left). This is the rotation-invariant shape
// distance of Xi et al.: rotating a closed contour's starting point
// circularly shifts its centroid-distance signature.
//
// This direct scan sums every rotation, O(n²); Aligner returns the same
// result in O(n log n) per candidate for callers that align one query
// against many series (the sax lookup cascade).
func MinRotationDist(a, b Series) (best float64, shift int, err error) {
	return MinRotationDistWindow(a, b, -1)
}

// MinRotationDistWindow is MinRotationDist with the shift search restricted
// to ±maxShift positions (maxShift < 0 searches all rotations). A bounded
// window keeps tolerance to modest in-plane rotation — the drone trimming
// its attitude — without allowing a gross rotation to alias one sign's lobe
// pattern onto another's, which is what full rotation invariance does to
// Yes vs No.
func MinRotationDistWindow(a, b Series, maxShift int) (best float64, shift int, err error) {
	return MinRotationDistWindowCutoff(a, b, maxShift, math.Inf(1))
}

// MinRotationDistWindowCutoff is MinRotationDistWindow with a best-so-far
// cutoff threaded into the inner loop: every shift's running sum is abandoned
// as soon as it can no longer beat min(local best, cutoff). Callers that scan
// many candidates pass their global best distance so hopeless candidates
// cost a handful of additions instead of a full pass.
//
// When every rotation's squared distance exceeds cutoff² the result is +Inf
// at shift 0; callers must treat any result ≥ cutoff as "no improvement". A
// cutoff of +Inf recovers the exact MinRotationDistWindow semantics.
func MinRotationDistWindowCutoff(a, b Series, maxShift int, cutoff float64) (best float64, shift int, err error) {
	if len(a) != len(b) {
		return 0, 0, ErrLengthMismatch
	}
	if len(a) == 0 {
		return 0, 0, ErrEmpty
	}
	bestSS, shift := minShiftSS(a, b, shiftBound(len(a), maxShift), cutoff*cutoff, nil, 0)
	return math.Sqrt(bestSS), shift, nil
}

// shiftBound normalises a shift window for series of length n: maxShift < 0
// or ≥ n/2 covers every rotation symmetrically.
func shiftBound(n, maxShift int) int {
	if maxShift < 0 || maxShift >= n/2 {
		return n / 2
	}
	return maxShift
}

// minShiftSS is the direct rotation scan shared by
// MinRotationDistWindowCutoff and Aligner: shifts in the order 0, 1, n−1, 2,
// n−2, …, ±maxShift, each summed by shiftSS under lim = min(best so far,
// cutSS), a shift winning only on a strict < — so the result is the
// smallest sum ≤ cutSS with the first shift attaining it, or +Inf at shift
// 0. When est is non-nil, shifts with est[k] > hi are skipped (Aligner's
// candidate filter; a NaN estimate is never skipped).
func minShiftSS(a, b Series, maxShift int, cutSS float64, est []float64, hi float64) (bestSS float64, shift int) {
	n := len(a)
	bestSS = math.Inf(1)
	for k := 0; k <= maxShift; k++ {
		for s := 0; s < 2; s++ {
			kk := k
			if s == 1 {
				if k == 0 {
					continue
				}
				kk = n - k
			}
			if est != nil && est[kk] > hi {
				continue
			}
			lim := bestSS
			if cutSS < lim {
				lim = cutSS
			}
			if ss, ok := shiftSS(a, b, kk, lim); ok && ss < bestSS {
				bestSS, shift = ss, kk
			}
		}
	}
	return bestSS, shift
}

// shiftSS returns Σᵢ (a[i] − b[(i+k) mod n])², accumulated in index order,
// with ok = false as soon as the running sum exceeds lim (early abandon).
// It is the one definition of the exact sum: every distance the lookup
// reports is this value's square root.
func shiftSS(a, b Series, k int, lim float64) (ss float64, ok bool) {
	n := len(a)
	head, wrap := b[k:n], b[:k]
	for i, x := range a[:n-k] {
		d := x - head[i]
		ss += d * d
		if ss > lim {
			return ss, false
		}
	}
	for i, x := range a[n-k:] {
		d := x - wrap[i]
		ss += d * d
		if ss > lim {
			return ss, false
		}
	}
	return ss, true
}

// MinRotationMirrorDist extends MinRotationDist to also consider the
// mirrored (reversed) candidate, returning the smaller of the two and
// whether the mirror produced it.
func MinRotationMirrorDist(a, b Series) (best float64, shift int, mirrored bool, err error) {
	return MinRotationMirrorDistWindow(a, b, -1)
}

// MinRotationMirrorDistWindow is MinRotationMirrorDist with a bounded shift
// window (see MinRotationDistWindow). The mirrored candidate is rotated by
// one before the window search so that a pure reversal (which maps index i
// to n-1-i, a reflection about the start point) stays inside a small
// window.
func MinRotationMirrorDistWindow(a, b Series, maxShift int) (best float64, shift int, mirrored bool, err error) {
	d1, s1, err := MinRotationDistWindow(a, b, maxShift)
	if err != nil {
		return 0, 0, false, err
	}
	// Reverse maps b[0] to position n-1; rotating left by n-1 (= -1) brings
	// the original start back to index 0 so the same window applies.
	d2, s2, err := MinRotationDistWindow(a, b.Reverse().Rotate(-1), maxShift)
	if err != nil {
		return 0, 0, false, err
	}
	if d2 < d1 {
		return d2, s2, true, nil
	}
	return d1, s1, false, nil
}
