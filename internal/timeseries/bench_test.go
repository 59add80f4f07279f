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

// BenchmarkAlignerMirror128 is the prepared aligner on the pair
// BenchmarkMinRotationMirrorDist128 scans directly: both orientations of one
// candidate, full rotation search, no cutoff.
func BenchmarkAlignerMirror128(b *testing.B) {
	x, y := benchPair(128)
	r := y.Reverse().Rotate(-1)
	var al Aligner
	al.Prepare(x)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := al.Align(y, r, -1, math.Inf(1)); err != nil {
			b.Fatal(err)
		}
	}
}
