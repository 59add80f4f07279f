package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"image"
	"image/png"
	"io"
	"math"
	"net/http"
	"strconv"

	"hdc/internal/failpoint"
	"hdc/internal/gesture"
	"hdc/internal/graph"
	"hdc/internal/pipeline"
	"hdc/internal/raster"
	"hdc/internal/recognizer"
)

// wire.go defines the frame and result wire formats shared by the server and
// its client package. Three request encodings are accepted, negotiated by
// Content-Type:
//
//   - application/json — {"frames": [{"width": W, "height": H, "pixels":
//     "<base64>"}, ...]} (a single object without the "frames" wrapper on
//     /v1/recognize). encoding/json base64s []byte natively, so the pixel
//     body is standard base64 of the row-major 8-bit gray buffer.
//   - application/octet-stream — the allocation-free hot path: headers
//     X-Frame-Width, X-Frame-Height and (for batches) X-Frame-Count describe
//     the geometry; the body is count×W×H raw gray bytes, read directly into
//     pooled raster.Gray buffers.
//   - image/png — a single grayscale-convertible PNG per request, decoded
//     with the stdlib and converted into a pooled buffer.
//
// Responses are always JSON. Non-finite float fields (an unrivalled match
// has margin +Inf) are encoded as -1 — JSON has no Inf — and documented so
// in DESIGN.md §"The service layer".

// Frame is the JSON wire form of one grayscale frame. Pixels is the
// row-major 8-bit buffer; encoding/json carries it as standard base64.
type Frame struct {
	Width  int    `json:"width"`
	Height int    `json:"height"`
	Pixels []byte `json:"pixels"`
}

// FrameFromRaster copies g into a wire Frame (for clients).
func FrameFromRaster(g *raster.Gray) Frame {
	pix := make([]byte, len(g.Pix))
	copy(pix, g.Pix)
	return Frame{Width: g.W, Height: g.H, Pixels: pix}
}

// batchRequest is the JSON body of /v1/batch and /v1/streams/{id}/frames.
type batchRequest struct {
	Frames []Frame `json:"frames"`
}

// FrameResult is the per-frame recognition verdict on the wire.
type FrameResult struct {
	OK         bool    `json:"ok"`
	Sign       string  `json:"sign,omitempty"`
	Label      string  `json:"label,omitempty"`
	Dist       float64 `json:"dist"`
	Confidence float64 `json:"confidence"`
	// Margin is the absolute distance gap to the nearest rival label; -1
	// encodes "no rival at all" (the in-process API uses +Inf, which JSON
	// cannot carry).
	Margin       float64 `json:"margin"`
	RunnerUp     string  `json:"runner_up,omitempty"`
	RunnerUpDist float64 `json:"runner_up_dist,omitempty"`
	// Err is "" on an accepted sign, "no_sign" when the frame held no
	// recognisable sign, "draining" when the pool shut down under the
	// request, "deadline" when the request's X-Deadline-Ms budget expired
	// before this frame finished, or the error text otherwise.
	Err string `json:"error,omitempty"`
	// Degraded marks a verdict served from the cascade's stage-0 path
	// (overload or read-only store): Dist is a lower bound, not an exact
	// distance, and the rival diagnostics are absent. See DESIGN.md §"The
	// dependability layer".
	Degraded bool `json:"degraded,omitempty"`
	// LatencyNS is the recogniser's end-to-end stage time for this frame.
	LatencyNS int64 `json:"latency_ns,omitempty"`
}

// ErrValueNoSign, ErrValueDraining and ErrValueDeadline are the reserved
// FrameResult.Err values.
const (
	ErrValueNoSign   = "no_sign"
	ErrValueDraining = "draining"
	ErrValueDeadline = "deadline"
)

// batchResponse is the JSON body answering batch and stream-frame requests.
type batchResponse struct {
	Results []FrameResult `json:"results"`
}

// streamInfo describes a stream session on the wire.
type streamInfo struct {
	ID        string `json:"id"`
	Window    int    `json:"window"`    // per-stream in-flight frame bound
	Submitted uint64 `json:"submitted"` // frames accepted so far
}

// errorResponse is the JSON body of every non-2xx answer.
type errorResponse struct {
	Error string `json:"error"`
}

// finite maps non-finite floats to the wire sentinel -1.
func finite(f float64) float64 {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return -1
	}
	return f
}

// resultToWire converts one recogniser verdict to its wire form.
func resultToWire(res recognizer.Result, err error) FrameResult {
	out := FrameResult{
		OK:         res.OK,
		Dist:       finite(res.Match.Dist),
		Confidence: finite(res.Confidence),
		Margin:     finite(res.Margin),
		LatencyNS:  res.Timings.Total.Nanoseconds(),
	}
	if res.OK {
		out.Sign = res.Sign.String()
	}
	out.Label = res.Match.Label
	if res.RunnerUp.Label != "" {
		out.RunnerUp = res.RunnerUp.Label
		out.RunnerUpDist = finite(res.RunnerUp.Dist)
	}
	out.Err = errValue(err)
	return out
}

// batchToWire converts a batch's verdicts, slot by slot.
func batchToWire(res []recognizer.Result, errs []error) []FrameResult {
	out := make([]FrameResult, len(res))
	for i := range out {
		out[i] = resultToWire(res[i], errs[i])
	}
	return out
}

// interrupted reports whether any slot answered "deadline" or "draining",
// the one rule by which a frame endpoint's 200 counts as failed in /statsz.
func interrupted(results []FrameResult) bool {
	for _, r := range results {
		if r.Err == ErrValueDeadline || r.Err == ErrValueDraining {
			return true
		}
	}
	return false
}

// errValue maps a per-item error to its wire string, the one mapping every
// endpoint answers with: the reserved values for a rejected frame or
// window, an expired X-Deadline-Ms budget ("deadline") and an executor shut
// down under the request ("draining"), the error text otherwise.
func errValue(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, recognizer.ErrNoSign):
		return ErrValueNoSign
	case errors.Is(err, gesture.ErrNoGesture):
		return ErrValueNoGesture
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return ErrValueDeadline
	case errors.Is(err, pipeline.ErrClosed), errors.Is(err, pipeline.ErrStreamClosed), errors.Is(err, graph.ErrClosed):
		return ErrValueDraining
	default:
		return err.Error()
	}
}

// Wire decode limits; see Options for the configurable batch bound.
const maxFramePixels = 4096 * 4096

var (
	errBadGeometry = errors.New("server: frame geometry out of range")
	errBodySize    = errors.New("server: request body does not match geometry")
)

// frameGeometry validates one frame's dimensions. The product is checked by
// division so attacker-controlled headers near (or past) the integer limit
// cannot wrap w*h around to a small value — 2^32 × 2^32 wraps to 0 on
// 64-bit ints, which would build a frame whose pixel buffer is shorter than
// W*H and panic a pool worker.
func frameGeometry(w, h int) error {
	if w <= 0 || h <= 0 || w > maxFramePixels/h {
		return fmt.Errorf("%w: %dx%d", errBadGeometry, w, h)
	}
	return nil
}

// decodeFrames reads the request's frames into buffers drawn from pool.
// Every returned frame must be handed back with pool.Put once its result is
// out — the caller owns that lifecycle. maxBatch bounds the frame count.
func decodeFrames(r *http.Request, pool *raster.Pool, maxBatch int, single bool) ([]*raster.Gray, error) {
	if err := failpoint.Inject(failpoint.ServerDecode); err != nil {
		return nil, err
	}
	ct := r.Header.Get("Content-Type")
	switch {
	case ct == "application/octet-stream":
		return decodeRawFrames(r, pool, maxBatch, single)
	case ct == "image/png":
		return decodePNGFrame(r, pool)
	default: // application/json (and unset, for curl convenience)
		return decodeJSONFrames(r, pool, maxBatch, single)
	}
}

// decodeRawFrames is the pooled zero-copy path: the body is count
// contiguous W×H gray planes, read straight into pooled pixel buffers.
func decodeRawFrames(r *http.Request, pool *raster.Pool, maxBatch int, single bool) ([]*raster.Gray, error) {
	w, err1 := strconv.Atoi(r.Header.Get("X-Frame-Width"))
	h, err2 := strconv.Atoi(r.Header.Get("X-Frame-Height"))
	if err1 != nil || err2 != nil {
		return nil, errors.New("server: octet-stream requests need X-Frame-Width and X-Frame-Height")
	}
	if err := frameGeometry(w, h); err != nil {
		return nil, err
	}
	count := 1
	if !single {
		if c := r.Header.Get("X-Frame-Count"); c != "" {
			count, err1 = strconv.Atoi(c)
			if err1 != nil || count <= 0 {
				return nil, errors.New("server: bad X-Frame-Count")
			}
		}
	}
	if count > maxBatch {
		return nil, fmt.Errorf("server: batch of %d exceeds limit %d", count, maxBatch)
	}
	frames := make([]*raster.Gray, 0, count)
	for i := 0; i < count; i++ {
		g := pool.Get(w, h)
		if _, err := io.ReadFull(r.Body, g.Pix); err != nil {
			pool.Put(g)
			releaseFrames(pool, frames)
			return nil, fmt.Errorf("%w: frame %d: %v", errBodySize, i, err)
		}
		frames = append(frames, g)
	}
	return frames, nil
}

// decodeJSONFrames handles the base64 JSON encoding. The base64 byte slices
// are decoded by encoding/json; the pixels are then copied into pooled
// buffers so the recognition path sees the same frame lifecycle as the raw
// path.
func decodeJSONFrames(r *http.Request, pool *raster.Pool, maxBatch int, single bool) ([]*raster.Gray, error) {
	dec := json.NewDecoder(r.Body)
	var wire []Frame
	if single {
		var f Frame
		if err := dec.Decode(&f); err != nil {
			return nil, fmt.Errorf("server: bad frame JSON: %w", err)
		}
		wire = []Frame{f}
	} else {
		var req batchRequest
		if err := dec.Decode(&req); err != nil {
			return nil, fmt.Errorf("server: bad batch JSON: %w", err)
		}
		wire = req.Frames
	}
	if len(wire) == 0 {
		return nil, errors.New("server: empty batch")
	}
	if len(wire) > maxBatch {
		return nil, fmt.Errorf("server: batch of %d exceeds limit %d", len(wire), maxBatch)
	}
	frames := make([]*raster.Gray, 0, len(wire))
	for i, f := range wire {
		if err := frameGeometry(f.Width, f.Height); err != nil {
			releaseFrames(pool, frames)
			return nil, fmt.Errorf("frame %d: %w", i, err)
		}
		if len(f.Pixels) != f.Width*f.Height {
			releaseFrames(pool, frames)
			return nil, fmt.Errorf("%w: frame %d: %d pixels for %dx%d",
				errBodySize, i, len(f.Pixels), f.Width, f.Height)
		}
		g := pool.Get(f.Width, f.Height)
		copy(g.Pix, f.Pixels)
		frames = append(frames, g)
	}
	return frames, nil
}

// decodePNGFrame decodes one PNG body into a pooled gray frame. The header
// is checked with DecodeConfig before the pixel decode runs, so a tiny body
// declaring enormous dimensions (a decompression bomb) is rejected before
// the decoder allocates for it.
func decodePNGFrame(r *http.Request, pool *raster.Pool) ([]*raster.Gray, error) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		return nil, fmt.Errorf("server: reading PNG body: %w", err)
	}
	cfg, err := png.DecodeConfig(bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("server: bad PNG: %w", err)
	}
	if err := frameGeometry(cfg.Width, cfg.Height); err != nil {
		return nil, err
	}
	img, err := png.Decode(bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("server: bad PNG: %w", err)
	}
	b := img.Bounds()
	if err := frameGeometry(b.Dx(), b.Dy()); err != nil {
		return nil, err
	}
	g := pool.Get(b.Dx(), b.Dy())
	if gi, ok := img.(*image.Gray); ok {
		for y := 0; y < g.H; y++ {
			copy(g.Pix[y*g.W:(y+1)*g.W], gi.Pix[y*gi.Stride:y*gi.Stride+g.W])
		}
		return []*raster.Gray{g}, nil
	}
	for y := 0; y < g.H; y++ {
		for x := 0; x < g.W; x++ {
			r16, g16, b16, _ := img.At(b.Min.X+x, b.Min.Y+y).RGBA()
			// ITU-R 601 luma, 16-bit channels down to 8.
			g.Pix[y*g.W+x] = uint8((299*r16 + 587*g16 + 114*b16) / 1000 >> 8)
		}
	}
	return []*raster.Gray{g}, nil
}

// releaseFrames returns a decoded frame set to the pool.
func releaseFrames(pool *raster.Pool, frames []*raster.Gray) {
	for _, f := range frames {
		pool.Put(f)
	}
}

// writeJSON writes v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		http.Error(w, `{"error":"encode"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes())
}

// writeError writes a JSON error body.
func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorResponse{Error: err.Error()})
}
