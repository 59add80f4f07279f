package server

import (
	"bytes"
	"image"
	"image/png"
	"math"
	"net/http/httptest"
	"strconv"
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

// FuzzRawFrames drives the octet-stream frame decoder with arbitrary
// geometry headers and bodies. A refused request must hand every frame it
// drew back to the pool; an accepted one must carry count frames of W×H
// bytes, each the matching slice of the body, and balance the pool once
// released.
func FuzzRawFrames(f *testing.F) {
	const maxBatch = 16
	body := make([]byte, 3*4*5)
	for i := range body {
		body[i] = byte(i)
	}
	for _, s := range []struct {
		w, h, count string
		single      bool
		body        []byte
	}{
		{"4", "5", "3", false, body},
		{"4", "5", "", false, body},
		{"4", "5", "3", true, body},
		{"4", "5", "4", false, body},
		{"4", "5", "17", false, body},
		{"4", "5", "0", false, body},
		{"4", "5", "-1", false, body},
		{"0", "5", "1", false, body},
		{"-4", "-5", "1", false, body},
		{"4096", "4096", "1", false, nil},
		{"4097", "4096", "1", false, nil},
		{"1", "16777216", "1", false, nil},
		{"1", "16777217", "1", false, nil},
		{"4294967296", "4294967296", "1", false, body},
		{"9223372036854775807", "2", "1", false, body},
		{"2", "9223372036854775807", "1", false, body},
		{"9223372036854775808", "1", "1", false, body},
		{"4", "5", "9223372036854775807", false, body},
		{"4", "5", "x", false, body},
		{"", "", "", false, nil},
	} {
		f.Add(s.w, s.h, s.count, s.single, s.body)
	}
	f.Fuzz(func(t *testing.T, w, h, count string, single bool, body []byte) {
		req := httptest.NewRequest("POST", "/v1/batch", bytes.NewReader(body))
		req.Header.Set("X-Frame-Width", w)
		req.Header.Set("X-Frame-Height", h)
		req.Header.Set("X-Frame-Count", count)
		var pool raster.Pool
		frames, err := decodeRawFrames(req, &pool, maxBatch, single)
		gets, puts := pool.Stats()
		if err != nil {
			if frames != nil || gets != puts {
				t.Fatalf("refused request (%v) left %d frames, pool gets %d puts %d", err, len(frames), gets, puts)
			}
			return
		}
		W, _ := strconv.Atoi(w)
		H, _ := strconv.Atoi(h)
		n := 1
		if !single && count != "" {
			n, _ = strconv.Atoi(count)
		}
		if len(frames) != n || gets != uint64(n) {
			t.Fatalf("%d frames (%d gets), want %d", len(frames), gets, n)
		}
		for i, g := range frames {
			if g.W != W || g.H != H || len(g.Pix) != W*H {
				t.Fatalf("frame %d is %dx%d with %d bytes, want %dx%d", i, g.W, g.H, len(g.Pix), W, H)
			}
			if !bytes.Equal(g.Pix, body[i*W*H:(i+1)*W*H]) {
				t.Fatalf("frame %d does not match its body slice", i)
			}
		}
		releaseFrames(&pool, frames)
		if gets, puts := pool.Stats(); gets != puts {
			t.Fatalf("released frames: pool gets %d puts %d", gets, puts)
		}
	})
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
