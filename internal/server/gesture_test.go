package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"hdc/internal/body"
	"hdc/internal/core"
	"hdc/internal/gesture"
	"hdc/internal/pipeline"
	"hdc/internal/raster"
	"hdc/internal/recognizer"
	"hdc/internal/scene"
	"hdc/internal/server"
	"hdc/internal/server/client"
)

// gestureService builds a service with the gesture endpoints enabled; the
// gesture recogniser templates render from the same system renderer the
// test frames use.
func gestureService(t testing.TB, opts server.Options, pipeCfg pipeline.Config) (*core.System, *httptest.Server) {
	t.Helper()
	sys, err := core.NewSystem(
		core.WithSceneConfig(scene.Config{}),
		core.WithPipelineConfig(pipeCfg),
	)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := gesture.NewRecognizer(gesture.Config{}, sys.Rend, scene.ReferenceView())
	if err != nil {
		t.Fatal(err)
	}
	opts.Gesture = rec
	srv := server.New(sys, opts)
	hs := httptest.NewServer(srv)
	t.Cleanup(func() {
		hs.Close()
		srv.Close()
		sys.Close()
	})
	return sys, hs
}

// gestureWindow renders n frames of g starting at phase0 (24 frames/cycle,
// the default template density).
func gestureWindow(t testing.TB, sys *core.System, g gesture.Gesture, phase0 float64, n int) []*raster.Gray {
	t.Helper()
	frames := make([]*raster.Gray, n)
	for i := range frames {
		fig, err := gesture.FigureAt(g, phase0+float64(i)/24, body.Options{})
		if err != nil {
			t.Fatal(err)
		}
		f, err := sys.Rend.RenderFigure(fig, scene.ReferenceView(), nil)
		if err != nil {
			t.Fatal(err)
		}
		frames[i] = f
	}
	return frames
}

// framePoolBalanced polls /statsz until the server's frame pool reports
// every checked-out buffer returned.
func framePoolBalanced(t *testing.T, c *client.Client) {
	t.Helper()
	ctx := context.Background()
	deadline := time.Now().Add(10 * time.Second)
	for {
		stats, err := c.Statsz(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if stats.FramePool.Gets == stats.FramePool.Puts {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("frame pool unbalanced: %d gets, %d puts",
				stats.FramePool.Gets, stats.FramePool.Puts)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestGestureOneShot drives POST /v1/gesture end to end: a rendered Wave
// window classifies as Wave, a static pose comes back as a no_gesture
// verdict (not an HTTP failure), and every pooled frame is returned.
func TestGestureOneShot(t *testing.T) {
	sys, hs := gestureService(t, server.Options{}, pipeline.Config{Workers: 4})
	c := client.New(hs.URL, nil)
	ctx := context.Background()

	res, err := c.Gesture(ctx, gestureWindow(t, sys, gesture.GestureWave, 0.4, 24))
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK || res.Gesture != "Wave" {
		t.Fatalf("wave window → %+v", res)
	}

	// A held static sign produces flat features: clean rejection on 200.
	static := make([]*raster.Gray, 24)
	fig, err := body.NewFigure(body.SignAttention, body.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range static {
		f, err := sys.Rend.RenderFigure(fig, scene.ReferenceView(), nil)
		if err != nil {
			t.Fatal(err)
		}
		static[i] = f
	}
	res, err = c.Gesture(ctx, static)
	if err != nil {
		t.Fatal(err)
	}
	if res.OK || res.Err != server.ErrValueNoGesture {
		t.Fatalf("static window → %+v, want no_gesture", res)
	}

	// Empty body is a 400.
	resp, err := http.Post(hs.URL+"/v1/gesture", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty gesture request: %d", resp.StatusCode)
	}
	// A sub-cycle window is a 400 too, not a confident bogus verdict: two
	// frames z-normalise into a trivially matchable shape against
	// thresholds calibrated for full cycles.
	shortBody, err := json.Marshal(map[string][]server.Frame{"frames": {
		server.FrameFromRaster(static[0]),
		server.FrameFromRaster(static[1]),
	}})
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(hs.URL+"/v1/gesture", "application/json", bytes.NewReader(shortBody))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("2-frame gesture window: %d, want 400", resp.StatusCode)
	}
	framePoolBalanced(t, c)
}

// TestGestureAdmissionAndDeadline pins the frame endpoints' dependability
// contract on POST /v1/gesture: a window over MaxInflightFrames is refused
// with 429 and Retry-After: 1, a malformed X-Deadline-Ms is a 400, a
// well-formed one still gets its verdict, and the frame pool balances.
func TestGestureAdmissionAndDeadline(t *testing.T) {
	sys, hs := gestureService(t, server.Options{MaxInflightFrames: 24}, pipeline.Config{Workers: 2})
	c := client.New(hs.URL, nil)
	ctx := context.Background()
	post := func(frames []*raster.Gray, deadline string) *http.Response {
		t.Helper()
		req, err := c.Post(ctx, "/v1/gesture", frames)
		if err != nil {
			t.Fatal(err)
		}
		if deadline != "" {
			req.Header.Set(server.DeadlineHeader, deadline)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	resp := post(gestureWindow(t, sys, gesture.GestureWave, 0, 48), "")
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") != "1" {
		t.Fatalf("over-cap window: %d, Retry-After %q", resp.StatusCode, resp.Header.Get("Retry-After"))
	}

	window := gestureWindow(t, sys, gesture.GestureWave, 0.4, 24)
	for _, bad := range []string{"banana", "0", "-5"} {
		resp := post(window, bad)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s %q: %d, want 400", server.DeadlineHeader, bad, resp.StatusCode)
		}
	}

	resp = post(window, "10000")
	var res server.GestureResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !res.OK || res.Gesture != "Wave" {
		t.Fatalf("window with a deadline: %d %+v", resp.StatusCode, res)
	}

	stats, err := c.Statsz(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Admission.Rejected != 1 || stats.Admission.InflightFrames != 0 {
		t.Fatalf("admission snapshot: %+v", stats.Admission)
	}
	framePoolBalanced(t, c)
}

// TestGestureDisabledByDefault pins that the endpoints only exist when the
// recogniser is configured.
func TestGestureDisabledByDefault(t *testing.T) {
	_, _, hs := testService(t, server.Options{}, pipeline.Config{Workers: 1})
	resp, err := http.Post(hs.URL+"/v1/gesture/streams", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("gesture endpoint without recogniser: %d", resp.StatusCode)
	}
}

// TestGestureLiveSession runs the live-feed path over HTTP: pushes hold
// capture cadence, verdicts arrive across polls, DELETE flushes and the
// final feed carries the accounting.
func TestGestureLiveSession(t *testing.T) {
	sys, hs := gestureService(t, server.Options{}, pipeline.Config{Workers: 4})
	c := client.New(hs.URL, nil)
	ctx := context.Background()

	st, err := c.OpenGestureStream(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Window <= 0 {
		t.Fatalf("session window %d", st.Window)
	}
	frames := gestureWindow(t, sys, gesture.GestureSeesaw, 0.1, 48)
	var matches []server.GestureResult
	for i := 0; i < len(frames); i += 12 {
		feed, err := st.Offer(ctx, frames[i:i+12]...)
		if err != nil {
			t.Fatal(err)
		}
		matches = append(matches, feed.Matches...)
	}
	// Graceful close flushes the queued tail and returns the rest.
	final, err := st.Close(ctx)
	if err != nil {
		t.Fatal(err)
	}
	matches = append(matches, final.Matches...)

	if final.Accepted != uint64(len(frames)) {
		t.Fatalf("accepted %d, want %d", final.Accepted, len(frames))
	}
	if final.Frames+final.Dropped != final.Accepted {
		t.Fatalf("accounting: %d processed + %d dropped != %d accepted",
			final.Frames, final.Dropped, final.Accepted)
	}
	if len(matches) == 0 {
		t.Fatal("no windows classified over the feed")
	}
	accepted := 0
	for _, m := range matches {
		if m.OK && m.Gesture == "Seesaw" {
			accepted++
		}
	}
	if accepted == 0 {
		t.Fatalf("no Seesaw verdicts in %d windows", len(matches))
	}

	// The session is gone after DELETE.
	resp, err := http.Get(hs.URL + "/v1/gesture/streams/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("deleted session answered %d", resp.StatusCode)
	}
	framePoolBalanced(t, c)

	// The ingest counters surfaced on /statsz.
	stats, err := c.Statsz(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Pool.IngestAccepted != uint64(len(frames)) {
		t.Fatalf("/statsz ingest accepted %d, want %d", stats.Pool.IngestAccepted, len(frames))
	}
	if _, ok := stats.Endpoints["gesture_feed"]; !ok {
		t.Fatal("/statsz missing gesture_feed endpoint stats")
	}
}

// TestDeadGestureSessionReportsGone pins the dead-feed signal: once the
// pool shuts down underneath a live session, pushes must answer 410 (and
// the session must end) rather than 200-with-stale-counters while every
// frame silently vanishes.
func TestDeadGestureSessionReportsGone(t *testing.T) {
	sys, hs := gestureService(t, server.Options{}, pipeline.Config{Workers: 2})
	c := client.New(hs.URL, nil)
	ctx := context.Background()

	st, err := c.OpenGestureStream(ctx)
	if err != nil {
		t.Fatal(err)
	}
	frame, err := sys.Rend.Render(body.SignNo, scene.ReferenceView(), body.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Offer(ctx, frame); err != nil {
		t.Fatal(err)
	}
	sys.Close() // the pool dies underneath the open session

	// The source notices asynchronously; pushes must start failing loudly.
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, err := st.Offer(ctx, frame)
		if err != nil {
			var apiErr *client.APIError
			if !errors.As(err, &apiErr) || apiErr.Status != http.StatusGone {
				t.Fatalf("dead session push: %v, want 410", err)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("pushes kept answering 200 on a dead session")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The session is gone afterwards.
	resp, err := http.Get(hs.URL + "/v1/gesture/streams/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("dead session still answers %d", resp.StatusCode)
	}
}

// TestCrossKindSessionIDsRejected pins the shared-namespace guard: gesture
// and recognition sessions live in one table with one ID sequence, and a
// session ID used against the other kind's endpoints must 404 — it used to
// reach a nil pipeline stream and panic the whole process (or wedge the
// session mutex on DELETE).
func TestCrossKindSessionIDsRejected(t *testing.T) {
	sys, hs := gestureService(t, server.Options{}, pipeline.Config{Workers: 2})
	c := client.New(hs.URL, nil)
	ctx := context.Background()

	gs, err := c.OpenGestureStream(ctx)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := c.OpenStream(ctx)
	if err != nil {
		t.Fatal(err)
	}
	frame, err := sys.Rend.Render(body.SignNo, scene.ReferenceView(), body.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	batchBody, err := json.Marshal(map[string][]server.Frame{
		"frames": {server.FrameFromRaster(frame)},
	})
	if err != nil {
		t.Fatal(err)
	}

	for _, probe := range []struct {
		method, path string
		withFrames   bool
	}{
		// Gesture ID against the recognition endpoints.
		{http.MethodPost, "/v1/streams/" + gs.ID + "/frames", true},
		{http.MethodGet, "/v1/streams/" + gs.ID, false},
		{http.MethodDelete, "/v1/streams/" + gs.ID, false},
		// Recognition ID against the gesture endpoints.
		{http.MethodPost, "/v1/gesture/streams/" + rs.ID + "/frames", true},
		{http.MethodGet, "/v1/gesture/streams/" + rs.ID, false},
		{http.MethodDelete, "/v1/gesture/streams/" + rs.ID, false},
	} {
		var bodyReader io.Reader
		if probe.withFrames {
			bodyReader = bytes.NewReader(batchBody)
		}
		httpReq, err := http.NewRequest(probe.method, hs.URL+probe.path, bodyReader)
		if err != nil {
			t.Fatal(err)
		}
		httpReq.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(httpReq)
		if err != nil {
			t.Fatalf("%s %s: %v", probe.method, probe.path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s %s: %d, want 404", probe.method, probe.path, resp.StatusCode)
		}
	}

	// Both sessions survived the cross-kind probes and still work.
	if _, err := rs.Submit(ctx, frame); err != nil {
		t.Fatalf("recognition session broken after probes: %v", err)
	}
	if _, err := gs.Offer(ctx, frame); err != nil {
		t.Fatalf("gesture session broken after probes: %v", err)
	}
}

// TestReapedGestureSessionRecyclesFrames is the counting-pool-under-the-
// reaper regression: a live session abandoned with frames still queued and
// in flight must hand every pooled buffer back through the drop hooks —
// before the hooks existed, each reap stranded up to a window of buffers.
func TestReapedGestureSessionRecyclesFrames(t *testing.T) {
	sys, hs := gestureService(t,
		server.Options{StreamIdleTimeout: 300 * time.Millisecond},
		pipeline.Config{Workers: 1, QueueDepth: 1, StreamWindow: 2})
	c := client.New(hs.URL, nil)
	ctx := context.Background()

	// Wedge the pool's single worker behind a side stream so the session's
	// frames are deterministically still queued — in the ring, the pool
	// queue and in flight — when the idle reaper fires.
	release := make(chan struct{})
	releaseOnce := sync.OnceFunc(func() { close(release) })
	t.Cleanup(releaseOnce)
	wedge, err := sys.NewProcStream(func(sc *recognizer.Scratch, seq uint64, frame *raster.Gray) (recognizer.Result, error) {
		<-release
		return recognizer.Result{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for range wedge.Results() {
		}
	}()
	plug, err := raster.NewGray(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := wedge.Submit(plug); err != nil {
		t.Fatal(err)
	}

	// Cheap uniform frames: the wedge keeps them queued, their content is
	// irrelevant to the leak accounting. Built before the session opens —
	// its idle clock is already ticking.
	flood := make([]*raster.Gray, 24)
	for i := range flood {
		g, err := raster.NewGray(64, 64)
		if err != nil {
			t.Fatal(err)
		}
		g.Pix[i] = 200
		flood[i] = g
	}
	st, err := c.OpenGestureStream(ctx)
	if err != nil {
		t.Fatal(err)
	}
	feed, err := st.Offer(ctx, flood...)
	if err != nil {
		t.Fatal(err)
	}
	if feed.Accepted != 24 {
		t.Fatalf("accepted %d of 24", feed.Accepted)
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(hs.URL + "/v1/gesture/streams/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusNotFound {
			break // reaped, with the pool still wedged
		}
		if time.Now().After(deadline) {
			t.Fatal("loaded gesture session never reaped")
		}
		time.Sleep(20 * time.Millisecond)
	}
	stats, err := c.Statsz(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Sessions.Reaped == 0 {
		t.Fatalf("reap not counted: %+v", stats.Sessions)
	}
	if stats.FramePool.Gets == stats.FramePool.Puts {
		t.Fatal("wedged session reports no outstanding frames — nothing was in flight at reap")
	}
	// Un-wedge: the queued frames drain, their results drop through the
	// abandon path, and every pooled buffer must come home.
	releaseOnce()
	wedge.Close()
	framePoolBalanced(t, c)
}
