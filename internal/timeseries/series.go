// Package timeseries provides the numeric time-series machinery underneath
// the SAX recogniser: z-normalisation, piecewise aggregate approximation
// (PAA), resampling and distance measures, including the circular-shift
// minimised distance that makes shape matching rotation invariant
// (Xi, Keogh, Wei & Mafra-Neto, "Finding Motifs in Database of Shapes").
package timeseries

import (
	"errors"
	"fmt"
	"math"
)

// Series is an ordered sequence of float64 samples. A nil or empty Series is
// valid and represents "no data".
type Series []float64

// Errors returned by series operations.
var (
	ErrEmpty          = errors.New("timeseries: empty series")
	ErrLengthMismatch = errors.New("timeseries: length mismatch")
	ErrBadSegments    = errors.New("timeseries: segment count must be in [1, len]")
)

// Clone returns an independent copy of s.
func (s Series) Clone() Series {
	if s == nil {
		return nil
	}
	out := make(Series, len(s))
	copy(out, s)
	return out
}

// Mean returns the arithmetic mean of s. It returns 0 for an empty series.
func (s Series) Mean() float64 {
	if len(s) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

// Std returns the population standard deviation of s. It returns 0 for
// series with fewer than one element.
func (s Series) Std() float64 {
	if len(s) == 0 {
		return 0
	}
	m := s.Mean()
	var ss float64
	for _, v := range s {
		d := v - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(s)))
}

// MinMax returns the minimum and maximum of s. It returns (0, 0) for an
// empty series.
func (s Series) MinMax() (lo, hi float64) {
	if len(s) == 0 {
		return 0, 0
	}
	lo, hi = s[0], s[0]
	for _, v := range s[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// stdFloor guards against division by ~zero when normalising nearly constant
// series: below this, a series is treated as constant and mapped to all
// zeros, matching common SAX implementations.
const stdFloor = 1e-10

// ZNormalize returns a copy of s shifted to mean 0 and scaled to standard
// deviation 1. A (near-)constant series normalises to all zeros. This is the
// step that makes sign recognition insensitive to silhouette scale — i.e. to
// the drone's altitude and stand-off distance (paper §IV).
func (s Series) ZNormalize() Series {
	if len(s) == 0 {
		return nil
	}
	out := make(Series, len(s))
	m, sd := s.Mean(), s.Std()
	if sd < stdFloor {
		return out // all zeros
	}
	for i, v := range s {
		out[i] = (v - m) / sd
	}
	return out
}

// ZNormalizeInto is ZNormalize writing into dst (grown as needed), so
// callers with a reusable buffer avoid the per-call allocation. It returns
// the normalised slice, which aliases dst's storage when capacity sufficed.
func (s Series) ZNormalizeInto(dst Series) Series {
	if len(s) == 0 {
		return dst[:0]
	}
	if cap(dst) < len(s) {
		dst = make(Series, len(s))
	}
	dst = dst[:len(s)]
	m, sd := s.Mean(), s.Std()
	if sd < stdFloor {
		for i := range dst {
			dst[i] = 0
		}
		return dst
	}
	for i, v := range s {
		dst[i] = (v - m) / sd
	}
	return dst
}

// PAA reduces s to segments piecewise-aggregate means. When len(s) is not a
// multiple of segments, fractional frame weighting is used so every sample
// contributes exactly once (the standard Keogh formulation generalised to
// non-divisible lengths).
func (s Series) PAA(segments int) (Series, error) {
	n := len(s)
	if n == 0 {
		return nil, ErrEmpty
	}
	if segments < 1 || segments > n {
		return nil, fmt.Errorf("%w: segments=%d len=%d", ErrBadSegments, segments, n)
	}
	out := make(Series, segments)
	if n%segments == 0 {
		w := n / segments
		for i := 0; i < segments; i++ {
			var sum float64
			for j := i * w; j < (i+1)*w; j++ {
				sum += s[j]
			}
			out[i] = sum / float64(w)
		}
		return out, nil
	}
	// Fractional-weight PAA: segment i covers [i*n/seg, (i+1)*n/seg).
	segLen := float64(n) / float64(segments)
	for i := 0; i < segments; i++ {
		start := float64(i) * segLen
		end := start + segLen
		var sum, weight float64
		for j := int(start); j < n && float64(j) < end; j++ {
			lo := math.Max(start, float64(j))
			hi := math.Min(end, float64(j+1))
			w := hi - lo
			if w <= 0 {
				continue
			}
			sum += s[j] * w
			weight += w
		}
		if weight > 0 {
			out[i] = sum / weight
		}
	}
	return out, nil
}

// ResampleLinear resamples s to n points by linear interpolation over the
// index domain. It is used to bring contour signatures of different contour
// lengths to a common length before comparison.
func (s Series) ResampleLinear(n int) (Series, error) {
	if len(s) == 0 {
		return nil, ErrEmpty
	}
	if n < 1 {
		return nil, fmt.Errorf("timeseries: resample target %d < 1", n)
	}
	out := make(Series, n)
	if len(s) == 1 {
		for i := range out {
			out[i] = s[0]
		}
		return out, nil
	}
	scale := float64(len(s)-1) / float64(n-1)
	if n == 1 {
		out[0] = s[0]
		return out, nil
	}
	for i := 0; i < n; i++ {
		x := float64(i) * scale
		j := int(x)
		if j >= len(s)-1 {
			out[i] = s[len(s)-1]
			continue
		}
		frac := x - float64(j)
		out[i] = s[j]*(1-frac) + s[j+1]*frac
	}
	return out, nil
}

// Rotate returns s circularly shifted left by k positions (k may be
// negative or exceed len).
func (s Series) Rotate(k int) Series {
	n := len(s)
	if n == 0 {
		return nil
	}
	k = ((k % n) + n) % n
	out := make(Series, n)
	copy(out, s[k:])
	copy(out[n-k:], s[:k])
	return out
}

// Reverse returns s in reverse order. Matching against reversed signatures
// implements mirror invariance (a signaller seen from behind produces the
// mirrored silhouette).
func (s Series) Reverse() Series {
	out := make(Series, len(s))
	for i, v := range s {
		out[len(s)-1-i] = v
	}
	return out
}

// MirrorInto writes s's mirror candidate into dst and returns it: m[i] =
// s[−i mod n], the reversal rotated by one so a pure reflection about the
// first sample sits at shift 0 (s.Reverse().Rotate(-1) without the
// allocations). dst is grown when shorter than s.
func (s Series) MirrorInto(dst Series) Series {
	n := len(s)
	if cap(dst) < n {
		dst = make(Series, n)
	}
	dst = dst[:n]
	if n == 0 {
		return dst
	}
	dst[0] = s[0]
	for i := 1; i < n; i++ {
		dst[i] = s[n-i]
	}
	return dst
}

// Smooth returns a centered moving-average of s with the given window
// half-width (window = 2*half+1), reflecting at the edges. half <= 0 returns
// a copy.
func (s Series) Smooth(half int) Series {
	if len(s) == 0 {
		return nil
	}
	if half <= 0 {
		return s.Clone()
	}
	out := make(Series, len(s))
	n := len(s)
	for i := range s {
		var sum float64
		var cnt int
		for d := -half; d <= half; d++ {
			j := i + d
			if j < 0 {
				j = -j
			}
			if j >= n {
				j = 2*n - 2 - j
			}
			if j < 0 || j >= n {
				continue
			}
			sum += s[j]
			cnt++
		}
		out[i] = sum / float64(cnt)
	}
	return out
}
