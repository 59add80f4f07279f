package server

import (
	"bytes"
	"image"
	"image/png"
	"math"
	"net/http/httptest"
	"testing"
	"time"

	"hdc/internal/raster"
	"hdc/internal/recognizer"
)

// TestDecodePNGFrame round-trips a gray PNG body into a pooled frame.
func TestDecodePNGFrame(t *testing.T) {
	src := image.NewGray(image.Rect(0, 0, 8, 6))
	for i := range src.Pix {
		src.Pix[i] = uint8(i * 3)
	}
	var buf bytes.Buffer
	if err := png.Encode(&buf, src); err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("POST", "/v1/recognize", &buf)
	req.Header.Set("Content-Type", "image/png")

	var pool raster.Pool
	frames, err := decodeFrames(req, &pool, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 1 || frames[0].W != 8 || frames[0].H != 6 {
		t.Fatalf("decoded %d frames, geometry %v", len(frames), frames[0])
	}
	for i, p := range frames[0].Pix {
		if p != src.Pix[i] {
			t.Fatalf("pixel %d: got %d want %d", i, p, src.Pix[i])
		}
	}
	releaseFrames(&pool, frames)

	// RGBA PNGs convert through luma rather than failing.
	rgba := image.NewRGBA(image.Rect(0, 0, 4, 4))
	for i := range rgba.Pix {
		rgba.Pix[i] = 200
	}
	buf.Reset()
	if err := png.Encode(&buf, rgba); err != nil {
		t.Fatal(err)
	}
	req = httptest.NewRequest("POST", "/v1/recognize", &buf)
	req.Header.Set("Content-Type", "image/png")
	frames, err = decodeFrames(req, &pool, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	if got := frames[0].Pix[0]; got < 195 || got > 205 {
		t.Fatalf("luma conversion off: %d", got)
	}
}

// TestResultToWireNonFinite pins the -1 sentinel for +Inf margins — JSON
// cannot carry Inf, and an unrivalled match produces one.
func TestResultToWireNonFinite(t *testing.T) {
	res := recognizer.Result{Margin: math.Inf(1), Confidence: 1}
	out := resultToWire(res, nil)
	if out.Margin != -1 {
		t.Fatalf("inf margin on the wire: %v, want -1", out.Margin)
	}
	if out.Confidence != 1 {
		t.Fatalf("confidence: %v", out.Confidence)
	}
}

// TestLatencyHistogram pins the bucket math and percentile estimates, and
// that recording a request allocates nothing.
func TestLatencyHistogram(t *testing.T) {
	var e endpointStats
	if b := e.hist.Bucket(0); b != 0 {
		t.Fatalf("bucket of 0 = %d", b)
	}
	if b := e.hist.Bucket((15 * time.Microsecond).Nanoseconds()); b != 0 {
		t.Fatalf("bucket of 15µs = %d", b)
	}
	if b := e.hist.Bucket((16 * time.Microsecond).Nanoseconds()); b != 1 {
		t.Fatalf("bucket of 16µs = %d", b)
	}
	if b := e.hist.Bucket(time.Hour.Nanoseconds()); b != (endpointLayout{}).Buckets()-1 {
		t.Fatalf("bucket of 1h = %d, want top bucket", b)
	}

	var warm endpointStats
	if a := testing.AllocsPerRun(100, func() { warm.record(20*time.Microsecond, 1, false) }); a != 0 {
		t.Fatalf("record allocates %v per call", a)
	}

	// 99 fast requests, one slow: p50 stays in the fast bucket, p99 reaches
	// the slow one.
	for i := 0; i < 99; i++ {
		e.record(20*time.Microsecond, 1, false)
	}
	e.record(100*time.Millisecond, 1, true)
	s := e.snapshot()
	if s.Count != 100 || s.Errors != 1 || s.Frames != 100 {
		t.Fatalf("counts: %+v", s)
	}
	if s.P50MS > 0.1 {
		t.Fatalf("p50 %.3f ms, want fast bucket", s.P50MS)
	}
	if s.P99MS < 50 {
		t.Fatalf("p99 %.3f ms, want slow bucket", s.P99MS)
	}
	if s.MaxMS < 99 {
		t.Fatalf("max %.3f ms", s.MaxMS)
	}
}
