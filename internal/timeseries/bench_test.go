package timeseries

import (
	"math"
	"math/rand"
	"testing"
)

func benchPair(n int) (Series, Series) {
	rng := rand.New(rand.NewSource(1))
	a := make(Series, n)
	b := make(Series, n)
	for i := range a {
		a[i] = rng.NormFloat64()
		b[i] = rng.NormFloat64()
	}
	return a, b
}

func BenchmarkZNormalize(b *testing.B) {
	s, _ := benchPair(128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.ZNormalize()
	}
}

func BenchmarkPAA(b *testing.B) {
	s, _ := benchPair(128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.PAA(16); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMinRotationDist128(b *testing.B) {
	x, y := benchPair(128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := MinRotationDist(x, y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMinRotationMirrorDist128(b *testing.B) {
	x, y := benchPair(128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := MinRotationMirrorDist(x, y); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSpecTableOf128 is the per-entry cost of the spectral bound's
// precomputation: sixteen |DFT| magnitudes and the squared norm of one
// 128-sample series.
func BenchmarkSpecTableOf128(b *testing.B) {
	x, _ := benchPair(128)
	tab := NewSpecTable(128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tab.Of(x)
	}
}

// BenchmarkAlignTransform128 is the candidate's half of the prepared
// aligner on the pair BenchmarkMinRotationMirrorDist128 scans directly: the
// forward transform a dictionary forms once per entry and caches.
func BenchmarkAlignTransform128(b *testing.B) {
	x, y := benchPair(128)
	var al Aligner
	al.Prepare(x)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := al.Transform(y); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAlignCached128 is the per-survivor cost of the exact stage on
// the same pair: both orientations against a cached Transform, full
// rotation search, no cutoff.
func BenchmarkAlignCached128(b *testing.B) {
	x, y := benchPair(128)
	var al Aligner
	al.Prepare(x)
	t, err := al.Transform(y)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := al.AlignTransform(y, t, -1, math.Inf(1)); err != nil {
			b.Fatal(err)
		}
	}
}
