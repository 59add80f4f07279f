// Package client is the Go client of the networked recognition service
// (internal/server): typed calls over the same wire contracts, so operators
// embed recognition-as-a-service with the ergonomics of the in-process API.
//
//	c := client.New("http://127.0.0.1:8080", nil)
//	res, err := c.Recognize(ctx, frame)
//	st, err := c.OpenStream(ctx)
//	results, err := st.Submit(ctx, frames...)
//
// Batch and stream submissions default to the raw octet-stream encoding
// (frames travel as bare pixel planes, decoded server-side into pooled
// buffers); set JSONWire to force the base64 JSON encoding instead.
//
// The client is retry-aware: idempotent calls (Recognize, RecognizeBatch,
// RawBatch, Gesture, Healthz, Statsz, OpenStream) retry transient failures
// — network errors, 429/502/503/504 — with exponential backoff, full
// jitter, and the server's Retry-After honoured. Stream submissions never
// retry (resubmitting an ordered batch would double-recognise it); their
// failures surface to the caller, who owns the dedup decision. A circuit
// breaker opens after consecutive transport failures so a dead service
// costs callers ErrCircuitOpen instead of a timeout each. Every attempt
// runs under its own timeout (Options.Timeout), and a context deadline is
// forwarded to the server as X-Deadline-Ms so the replica stops working on
// frames the caller has already given up on.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"

	"hdc/internal/raster"
	"hdc/internal/server"
)

// Options tunes the client's dependability behaviour. The zero value gives
// sane production defaults.
type Options struct {
	// HTTPClient overrides the transport. Nil builds one with Timeout as
	// its overall cap — never the zero-value http.Client, whose missing
	// timeout hangs a caller forever on a wedged server.
	HTTPClient *http.Client
	// Timeout bounds each attempt (default 30s; <0 disables).
	Timeout time.Duration
	// MaxAttempts is the total tries per idempotent call (default 3).
	MaxAttempts int
	// BaseBackoff is the first retry delay, doubling per attempt with full
	// jitter (default 100ms).
	BaseBackoff time.Duration
	// MaxBackoff caps the computed backoff (default 2s). A server
	// Retry-After larger than the cap is still honoured.
	MaxBackoff time.Duration
	// BreakerThreshold is the consecutive-failure count that opens the
	// circuit (default 5; <0 disables the breaker).
	BreakerThreshold int
	// BreakerCooldown is how long an open circuit rejects calls before
	// letting one probe through (default 5s).
	BreakerCooldown time.Duration
	// JSONWire switches batch/stream frame uploads from the raw
	// octet-stream encoding to base64 JSON.
	JSONWire bool
	// now overrides the clock in tests.
	now func() time.Time
}

func (o Options) withDefaults() Options {
	if o.Timeout == 0 {
		o.Timeout = 30 * time.Second
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 3
	}
	if o.BaseBackoff <= 0 {
		o.BaseBackoff = 100 * time.Millisecond
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = 2 * time.Second
	}
	if o.BreakerThreshold == 0 {
		o.BreakerThreshold = 5
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = 5 * time.Second
	}
	if o.now == nil {
		o.now = time.Now
	}
	if o.HTTPClient == nil {
		hc := &http.Client{}
		if o.Timeout > 0 {
			hc.Timeout = o.Timeout
		}
		o.HTTPClient = hc
	}
	return o
}

// Client talks to one recognition service.
type Client struct {
	base string
	hc   *http.Client
	opts Options
	brk  breaker
	// JSONWire switches batch/stream frame uploads from the raw
	// octet-stream encoding to base64 JSON. (Kept as a field for
	// compatibility; NewWithOptions callers set Options.JSONWire.)
	JSONWire bool
}

// New builds a client for the service at base (e.g. "http://host:8080")
// with default options. A nil hc builds a transport with the default
// per-attempt timeout — not http.DefaultClient, which has none.
func New(base string, hc *http.Client) *Client {
	return NewWithOptions(base, Options{HTTPClient: hc})
}

// NewWithOptions builds a client with explicit dependability options.
func NewWithOptions(base string, opts Options) *Client {
	o := opts.withDefaults()
	c := &Client{base: base, hc: o.HTTPClient, opts: o, JSONWire: o.JSONWire}
	c.brk.threshold = o.BreakerThreshold
	c.brk.cooldown = o.BreakerCooldown
	return c
}

// APIError is a non-2xx service answer.
type APIError struct {
	Status int
	Msg    string
	// RetryAfter is the server's requested backoff (429/503), zero when
	// the response carried none.
	RetryAfter time.Duration
}

// Error renders the status and the server's message; APIError satisfies the
// error interface so callers can errors.As for the HTTP status.
func (e *APIError) Error() string {
	return fmt.Sprintf("server: %d: %s", e.Status, e.Msg)
}

// ErrDraining reports that the service refused work because it is shutting
// down; retry against another replica.
var ErrDraining = errors.New("client: service draining")

// ErrCircuitOpen reports that the client's circuit breaker is open after
// consecutive transport failures: the call never reached the network. It
// closes again after Options.BreakerCooldown.
var ErrCircuitOpen = errors.New("client: circuit open")

// breaker is a consecutive-failure circuit breaker. After threshold
// failures in a row the circuit opens for cooldown; the first call after
// the cooldown probes the service (half-open) — its failure reopens the
// circuit immediately, its success closes it.
type breaker struct {
	threshold int
	cooldown  time.Duration

	mu        sync.Mutex
	failures  int
	openUntil time.Time
}

// allow reports whether a call may proceed.
func (b *breaker) allow(now time.Time) bool {
	if b.threshold < 0 {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return !now.Before(b.openUntil)
}

// success closes the circuit.
func (b *breaker) success() {
	b.mu.Lock()
	b.failures = 0
	b.openUntil = time.Time{}
	b.mu.Unlock()
}

// failure counts one transport failure, opening the circuit at threshold.
// The count is left at the threshold so a half-open probe's failure reopens
// immediately.
func (b *breaker) failure(now time.Time) {
	if b.threshold < 0 {
		return
	}
	b.mu.Lock()
	if b.failures < b.threshold {
		b.failures++
	}
	if b.failures >= b.threshold {
		b.openUntil = now.Add(b.cooldown)
	}
	b.mu.Unlock()
}

// decodeError turns a non-2xx response into an error.
func decodeError(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	var er struct {
		Error string `json:"error"`
	}
	_ = json.Unmarshal(body, &er)
	if resp.StatusCode == http.StatusServiceUnavailable {
		return fmt.Errorf("%w: %s", ErrDraining, er.Error)
	}
	apiErr := &APIError{Status: resp.StatusCode, Msg: er.Error}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if secs, err := strconv.Atoi(ra); err == nil && secs >= 0 {
			apiErr.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	return apiErr
}

// retriable classifies an error as transient: transport failures and the
// shed/unavailable statuses. Client mistakes (4xx other than 429) are not.
func retriable(err error) bool {
	if errors.Is(err, ErrDraining) {
		return true
	}
	var apiErr *APIError
	if errors.As(err, &apiErr) {
		switch apiErr.Status {
		case http.StatusTooManyRequests, http.StatusBadGateway,
			http.StatusServiceUnavailable, http.StatusGatewayTimeout:
			return true
		}
		return false
	}
	// Anything else is a transport-level failure (refused, reset, timed
	// out) — worth another attempt.
	return true
}

// retryDelay is the wait before attempt n (1-based retry index):
// exponential from BaseBackoff with full jitter, capped at MaxBackoff —
// unless the server asked for a specific Retry-After, which wins.
func (c *Client) retryDelay(retry int, lastErr error) time.Duration {
	d := c.opts.BaseBackoff << uint(retry-1)
	if d > c.opts.MaxBackoff || d <= 0 {
		d = c.opts.MaxBackoff
	}
	d = d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
	var apiErr *APIError
	if errors.As(lastErr, &apiErr) && apiErr.RetryAfter > d {
		d = apiErr.RetryAfter
	}
	return d
}

// sleep waits d or until ctx ends.
func sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// doOnce runs one request and decodes a JSON body into out (unless nil).
func (c *Client) doOnce(req *http.Request, out any) error {
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return decodeError(resp)
	}
	if out == nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// do runs one non-retried request under the breaker (stream submissions,
// deletes).
func (c *Client) do(req *http.Request, out any) error {
	if !c.brk.allow(c.opts.now()) {
		return ErrCircuitOpen
	}
	err := c.doOnce(req, out)
	if err != nil && retriable(err) {
		c.brk.failure(c.opts.now())
	} else if err == nil {
		c.brk.success()
	}
	return err
}

// doRetry runs build→send up to MaxAttempts times for an idempotent call.
// build is invoked per attempt with that attempt's context (the request
// body must be rebuilt — an io.Reader is consumed by a failed send).
func (c *Client) doRetry(ctx context.Context, build func(ctx context.Context) (*http.Request, error), out any) error {
	var lastErr error
	for attempt := 0; attempt < c.opts.MaxAttempts; attempt++ {
		if attempt > 0 {
			if err := sleep(ctx, c.retryDelay(attempt, lastErr)); err != nil {
				return lastErr
			}
		}
		if !c.brk.allow(c.opts.now()) {
			if lastErr != nil {
				return fmt.Errorf("%w (last error: %v)", ErrCircuitOpen, lastErr)
			}
			return ErrCircuitOpen
		}
		actx, cancel := ctx, context.CancelFunc(func() {})
		if c.opts.Timeout > 0 {
			actx, cancel = context.WithTimeout(ctx, c.opts.Timeout)
		}
		req, err := build(actx)
		if err != nil {
			cancel()
			return err
		}
		err = c.doOnce(req, out)
		cancel()
		if err == nil {
			c.brk.success()
			return nil
		}
		lastErr = err
		if !retriable(err) {
			return err
		}
		c.brk.failure(c.opts.now())
		if ctx.Err() != nil {
			return lastErr
		}
	}
	return lastErr
}

// jsonWire reports the effective wire choice (field overrides option).
func (c *Client) jsonWire() bool { return c.JSONWire || c.opts.JSONWire }

// frameBody encodes frames for upload. All frames of a raw batch must share
// one geometry; mixed sizes fall back to JSON automatically.
func (c *Client) frameBody(frames []*raster.Gray, single bool) (io.Reader, string, map[string]string, error) {
	for _, f := range frames {
		if f == nil {
			return nil, "", nil, errors.New("client: nil frame")
		}
	}
	raw := !c.jsonWire()
	for _, f := range frames[1:] {
		if f.W != frames[0].W || f.H != frames[0].H {
			raw = false
			break
		}
	}
	if raw {
		var buf bytes.Buffer
		buf.Grow(len(frames) * len(frames[0].Pix))
		for _, f := range frames {
			buf.Write(f.Pix)
		}
		hdr := map[string]string{
			"X-Frame-Width":  strconv.Itoa(frames[0].W),
			"X-Frame-Height": strconv.Itoa(frames[0].H),
		}
		if !single {
			hdr["X-Frame-Count"] = strconv.Itoa(len(frames))
		}
		return &buf, "application/octet-stream", hdr, nil
	}
	var payload any
	if single {
		payload = server.FrameFromRaster(frames[0])
	} else {
		wire := make([]server.Frame, len(frames))
		for i, f := range frames {
			wire[i] = server.FrameFromRaster(f)
		}
		payload = struct {
			Frames []server.Frame `json:"frames"`
		}{wire}
	}
	body, err := json.Marshal(payload)
	if err != nil {
		return nil, "", nil, err
	}
	return bytes.NewReader(body), "application/json", nil, nil
}

// setDeadlineHeader forwards the context's deadline (if any) to the server
// as X-Deadline-Ms, so a replica stops recognising frames the caller has
// already abandoned.
func setDeadlineHeader(req *http.Request, ctx context.Context, now func() time.Time) {
	dl, ok := ctx.Deadline()
	if !ok {
		return
	}
	ms := dl.Sub(now()).Milliseconds()
	if ms < 1 {
		ms = 1
	}
	req.Header.Set(server.DeadlineHeader, strconv.FormatInt(ms, 10))
}

// post builds a frame-carrying POST.
func (c *Client) post(ctx context.Context, path string, frames []*raster.Gray, single bool) (*http.Request, error) {
	body, ct, hdr, err := c.frameBody(frames, single)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, body)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", ct)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	setDeadlineHeader(req, ctx, c.opts.now)
	return req, nil
}

// Recognize submits one frame to POST /v1/recognize. Transient failures
// retry with backoff.
func (c *Client) Recognize(ctx context.Context, frame *raster.Gray) (server.FrameResult, error) {
	var out server.FrameResult
	err := c.doRetry(ctx, func(actx context.Context) (*http.Request, error) {
		return c.post(actx, "/v1/recognize", []*raster.Gray{frame}, true)
	}, &out)
	if err != nil {
		return server.FrameResult{}, err
	}
	return out, nil
}

// RecognizeBatch submits an ordered batch to POST /v1/batch and returns one
// result per frame, in input order. Transient failures retry with backoff —
// a batch is stateless on the server, so a retried send cannot double-count.
func (c *Client) RecognizeBatch(ctx context.Context, frames []*raster.Gray) ([]server.FrameResult, error) {
	if len(frames) == 0 {
		return nil, nil
	}
	var out struct {
		Results []server.FrameResult `json:"results"`
	}
	err := c.doRetry(ctx, func(actx context.Context) (*http.Request, error) {
		return c.post(actx, "/v1/batch", frames, false)
	}, &out)
	if err != nil {
		return nil, err
	}
	if len(out.Results) != len(frames) {
		return out.Results, fmt.Errorf("client: %d results for %d frames", len(out.Results), len(frames))
	}
	return out.Results, nil
}

// rawRequest builds an octet-stream POST from a pre-encoded payload.
func (c *Client) rawRequest(ctx context.Context, path string, w, h, count int, payload []byte) (*http.Request, error) {
	if len(payload) != w*h*count {
		return nil, fmt.Errorf("client: payload %d bytes for %d %dx%d frames", len(payload), count, w, h)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(payload))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	req.Header.Set("X-Frame-Width", strconv.Itoa(w))
	req.Header.Set("X-Frame-Height", strconv.Itoa(h))
	req.Header.Set("X-Frame-Count", strconv.Itoa(count))
	setDeadlineHeader(req, ctx, c.opts.now)
	return req, nil
}

// EncodeRaw pre-encodes frames into one octet-stream payload for
// RawBatch/SubmitRaw: operators that resubmit the same capture buffer (ring
// buffers, load generators) pay the encode once instead of per request.
func EncodeRaw(frames []*raster.Gray) (w, h int, payload []byte, err error) {
	if len(frames) == 0 {
		return 0, 0, nil, errors.New("client: no frames")
	}
	w, h = frames[0].W, frames[0].H
	payload = make([]byte, 0, len(frames)*w*h)
	for _, f := range frames {
		if f == nil || f.W != w || f.H != h {
			return 0, 0, nil, errors.New("client: raw batches need uniform frame geometry")
		}
		payload = append(payload, f.Pix...)
	}
	return w, h, payload, nil
}

// RawBatch is RecognizeBatch over a pre-encoded payload (see EncodeRaw).
func (c *Client) RawBatch(ctx context.Context, w, h, count int, payload []byte) ([]server.FrameResult, error) {
	var out struct {
		Results []server.FrameResult `json:"results"`
	}
	err := c.doRetry(ctx, func(actx context.Context) (*http.Request, error) {
		return c.rawRequest(actx, "/v1/batch", w, h, count, payload)
	}, &out)
	if err != nil {
		return nil, err
	}
	return out.Results, nil
}

// Stream is a session-scoped ordered stream on the service.
type Stream struct {
	c      *Client
	ID     string
	Window int
}

// OpenStream creates a session (POST /v1/streams). Opening retries —
// an orphaned session from an ambiguous first attempt is reaped by the
// server's idle timer, so retrying is safe.
func (c *Client) OpenStream(ctx context.Context) (*Stream, error) {
	var info struct {
		ID     string `json:"id"`
		Window int    `json:"window"`
	}
	err := c.doRetry(ctx, func(actx context.Context) (*http.Request, error) {
		return http.NewRequestWithContext(actx, http.MethodPost, c.base+"/v1/streams", nil)
	}, &info)
	if err != nil {
		return nil, err
	}
	return &Stream{c: c, ID: info.ID, Window: info.Window}, nil
}

// Submit pushes frames onto the stream and returns their ordered results.
// A result tail marked "draining" means the service shut down mid-request;
// "deadline" means the request's deadline expired and the session was
// sacrificed. Submissions are NOT retried: the stream is ordered and
// stateful, so resubmitting an ambiguous batch would double-recognise it —
// the caller decides whether to resend or abandon the session.
func (s *Stream) Submit(ctx context.Context, frames ...*raster.Gray) ([]server.FrameResult, error) {
	if len(frames) == 0 {
		return nil, nil
	}
	req, err := s.c.post(ctx, "/v1/streams/"+s.ID+"/frames", frames, false)
	if err != nil {
		return nil, err
	}
	var out struct {
		Results []server.FrameResult `json:"results"`
	}
	if err := s.c.do(req, &out); err != nil {
		return nil, err
	}
	if len(out.Results) != len(frames) {
		return out.Results, fmt.Errorf("client: %d results for %d frames", len(out.Results), len(frames))
	}
	return out.Results, nil
}

// SubmitRaw is Submit over a pre-encoded payload (see EncodeRaw). Like
// Submit it never retries.
func (s *Stream) SubmitRaw(ctx context.Context, w, h, count int, payload []byte) ([]server.FrameResult, error) {
	req, err := s.c.rawRequest(ctx, "/v1/streams/"+s.ID+"/frames", w, h, count, payload)
	if err != nil {
		return nil, err
	}
	var out struct {
		Results []server.FrameResult `json:"results"`
	}
	if err := s.c.do(req, &out); err != nil {
		return nil, err
	}
	return out.Results, nil
}

// Close ends the session (DELETE /v1/streams/{id}).
func (s *Stream) Close(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, s.c.base+"/v1/streams/"+s.ID, nil)
	if err != nil {
		return err
	}
	return s.c.do(req, nil)
}

// Healthz reports whether the service is accepting work (the legacy
// combined health probe; the server's /livez and /readyz split it).
func (c *Client) Healthz(ctx context.Context) error {
	return c.doRetry(ctx, func(actx context.Context) (*http.Request, error) {
		return http.NewRequestWithContext(actx, http.MethodGet, c.base+"/healthz", nil)
	}, nil)
}

// Statsz fetches the service's occupancy/latency snapshot.
func (c *Client) Statsz(ctx context.Context) (server.StatsResponse, error) {
	var out server.StatsResponse
	err := c.doRetry(ctx, func(actx context.Context) (*http.Request, error) {
		return http.NewRequestWithContext(actx, http.MethodGet, c.base+"/statsz", nil)
	}, &out)
	return out, err
}

// Tracez fetches the service's per-frame trace snapshot: recent completed
// frame traces (stage spans, owner label, terminal event) plus the
// cumulative per-stage latency breakdown. limit bounds the per-frame
// records; 0 takes the server default.
func (c *Client) Tracez(ctx context.Context, limit int) (server.TracezResponse, error) {
	url := c.base + "/tracez"
	if limit > 0 {
		url += fmt.Sprintf("?limit=%d", limit)
	}
	var out server.TracezResponse
	err := c.doRetry(ctx, func(actx context.Context) (*http.Request, error) {
		return http.NewRequestWithContext(actx, http.MethodGet, url, nil)
	}, &out)
	return out, err
}
