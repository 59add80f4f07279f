package vision

import (
	"testing"

	"hdc/internal/raster"
)

func benchFrame() *raster.Gray {
	g := raster.MustGray(256, 256)
	g.Fill(210)
	// A figure-like blob: torso + arms.
	g.FillPolygon([]float64{120, 136, 136, 120}, []float64{80, 80, 200, 200}, 30)
	g.StrokeLine(128, 100, 80, 60, 5, 30)
	g.StrokeLine(128, 100, 176, 140, 5, 30)
	g.FillDisc(128, 70, 12, 30)
	g.BoxBlur(1, 2)
	return g
}

func BenchmarkOtsuBinarize(b *testing.B) {
	g := benchFrame()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		OtsuBinarize(g)
	}
}

// BenchmarkMorphOpenClose times the served clean-up, Scratch.Clean (open
// then close at r=1), on the 256×256 bench frame. The warm-up call grows the
// scratch and leaves the mask at its fixed point (close∘open is idempotent),
// so every timed call sees the same input.
func BenchmarkMorphOpenClose(b *testing.B) {
	s := NewScratch()
	mask := s.Clean(OtsuBinarize(benchFrame()), 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Clean(mask, 1)
	}
}

func BenchmarkLabelComponents(b *testing.B) {
	mask := OtsuBinarize(benchFrame())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		LabelComponents(mask)
	}
}

func BenchmarkExtractSignatureNormalized(b *testing.B) {
	mask := OtsuBinarize(benchFrame())
	mask = Open(mask, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := ExtractSignatureNormalized(mask, 128); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScratchExtractSignature times the served contour step,
// Scratch.ExtractSignatureNorm (labelling, Moore trace and 128-sample
// whitened signature), on the cleaned 256×256 bench frame. The warm-up call
// grows the scratch, so the timed calls run allocation-free.
func BenchmarkScratchExtractSignature(b *testing.B) {
	s := NewScratch()
	mask := s.Clean(OtsuBinarize(benchFrame()), 1)
	if _, _, _, err := s.ExtractSignatureNorm(mask, 128, NormWhiten); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := s.ExtractSignatureNorm(mask, 128, NormWhiten); err != nil {
			b.Fatal(err)
		}
	}
}
