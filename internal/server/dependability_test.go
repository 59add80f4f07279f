package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"hdc/internal/body"
	"hdc/internal/failpoint"
	"hdc/internal/pipeline"
	"hdc/internal/raster"
	"hdc/internal/sax"
	"hdc/internal/sax/store"
	"hdc/internal/server"
	"hdc/internal/server/client"
	"hdc/internal/timeseries"
)

// dependability_test.go drives the server's fault story end to end:
// deadline headers bounding requests, admission control shedding with 429,
// degraded stage-0 answers under a read-only store, the liveness/readiness
// split, and the debug /failpointz endpoint. Failpoints are process-global,
// so this package must not run these tests in parallel; each test disarms
// everything it armed.

// getJSON fetches url and decodes the body into out, returning the status.
func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

// TestLivezReadyzSplit pins the contract: /livez stays 200 through a drain
// (the process is healthy, just not routable), /readyz and /healthz drop to
// 503.
func TestLivezReadyzSplit(t *testing.T) {
	_, srv, hs := testService(t, server.Options{}, pipeline.Config{Workers: 1})

	if code := getJSON(t, hs.URL+"/livez", nil); code != http.StatusOK {
		t.Fatalf("livez before drain: %d", code)
	}
	var ready struct {
		Status  string   `json:"status"`
		Reasons []string `json:"reasons"`
	}
	if code := getJSON(t, hs.URL+"/readyz", &ready); code != http.StatusOK || ready.Status != "ready" {
		t.Fatalf("readyz before drain: %d %+v", code, ready)
	}

	srv.Drain()
	if code := getJSON(t, hs.URL+"/livez", nil); code != http.StatusOK {
		t.Fatalf("livez while draining: %d", code)
	}
	if code := getJSON(t, hs.URL+"/readyz", &ready); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining: %d", code)
	} else if len(ready.Reasons) != 1 || ready.Reasons[0] != "draining" {
		t.Fatalf("readyz reasons: %+v", ready)
	}
	if code := getJSON(t, hs.URL+"/healthz", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: %d", code)
	}
}

// readOnlyStore builds a store and latches it read-only through the
// WAL-append failpoint.
func readOnlyStore(t *testing.T) *store.Store {
	t.Helper()
	enc, err := sax.NewEncoder(16, 5)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Create(t.TempDir()+"/s", enc, 128, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	s := make(timeseries.Series, 128)
	for i := range s {
		s[i] = float64(i % 17)
	}
	if err := failpoint.Enable(failpoint.StoreWALAppend, "error(enospc)"); err != nil {
		t.Fatal(err)
	}
	defer failpoint.Disable(failpoint.StoreWALAppend)
	if err := st.Add("ref", s); err == nil {
		t.Fatal("Add under WAL failpoint succeeded")
	}
	if ro, _ := st.ReadOnly(); !ro {
		t.Fatal("store not read-only after WAL failure")
	}
	return st
}

// TestReadOnlyStoreDegrades pins the degradation path: with the backing
// store latched read-only, /readyz reports store-read-only, /statsz carries
// the latch, and recognition answers come from the stage-0 path marked
// degraded:true — still under the right label at the reference view.
func TestReadOnlyStoreDegrades(t *testing.T) {
	defer failpoint.DisableAll()
	st := readOnlyStore(t)
	sys, _, hs := testService(t, server.Options{Store: st}, pipeline.Config{Workers: 2})

	var ready struct {
		Reasons []string `json:"reasons"`
	}
	if code := getJSON(t, hs.URL+"/readyz", &ready); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz with read-only store: %d", code)
	} else if len(ready.Reasons) != 1 || ready.Reasons[0] != "store-read-only" {
		t.Fatalf("readyz reasons: %+v", ready)
	}

	c := client.New(hs.URL, nil)
	frame := signFrames(t, sys, []body.Sign{body.SignNo})[0]
	res, err := c.Recognize(context.Background(), frame)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded || !res.OK || res.Sign != "No" {
		t.Fatalf("degraded verdict: %+v", res)
	}
	if res.Confidence != 0 || res.RunnerUp != "" {
		t.Fatalf("degraded result carries full-path diagnostics: %+v", res)
	}

	stats, err := c.Statsz(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Admission.StoreReadOnly || stats.Admission.DegradedFrames == 0 {
		t.Fatalf("admission snapshot: %+v", stats.Admission)
	}
	if stats.Store == nil || !stats.Store.ReadOnly {
		t.Fatalf("store snapshot: %+v", stats.Store)
	}
}

// TestAdmissionControl pins the preamble the frame endpoints share: a
// request over the in-flight cap is refused with 429 and Retry-After: 1, a
// malformed X-Deadline-Ms answers 400, a request under the cap is served in
// order, and every frame decoded on any of those paths returns to the frame
// pool.
func TestAdmissionControl(t *testing.T) {
	for _, tc := range []struct {
		name string
		path func(t *testing.T, c *client.Client) string
	}{
		{"batch", func(*testing.T, *client.Client) string { return "/v1/batch" }},
		{"graph_recognize", func(*testing.T, *client.Client) string { return "/v1/graph/recognize" }},
		{"stream_frames", func(t *testing.T, c *client.Client) string {
			st, err := c.OpenStream(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			return "/v1/streams/" + st.ID + "/frames"
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys, _, hs := testService(t,
				server.Options{MaxInflightFrames: 2}, pipeline.Config{Workers: 1})
			signs := signPattern(0, 4)
			frames := signFrames(t, sys, signs)
			c := client.New(hs.URL, nil)
			path := tc.path(t, c)
			post := func(frames []*raster.Gray, deadline string) (*http.Response, []server.FrameResult) {
				t.Helper()
				req, err := c.Post(context.Background(), path, frames)
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
				defer resp.Body.Close()
				var out struct {
					Results []server.FrameResult `json:"results"`
				}
				if resp.StatusCode == http.StatusOK {
					if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
						t.Fatal(err)
					}
				}
				return resp, out.Results
			}

			resp, _ := post(frames, "")
			if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") != "1" {
				t.Fatalf("over-cap request: %d, Retry-After %q", resp.StatusCode, resp.Header.Get("Retry-After"))
			}
			for _, bad := range []string{"banana", "0", "-5"} {
				if resp, _ := post(frames[:2], bad); resp.StatusCode != http.StatusBadRequest {
					t.Fatalf("%s %q: %d, want 400", server.DeadlineHeader, bad, resp.StatusCode)
				}
			}
			resp, results := post(frames[:2], "10000")
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("under-cap request: %d", resp.StatusCode)
			}
			checkOrdered(t, "under-cap", signs[:2], results)

			stats, err := c.Statsz(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if stats.Admission.Rejected != 1 || stats.Admission.InflightFrames != 0 {
				t.Fatalf("admission snapshot: %+v", stats.Admission)
			}
			framePoolBalanced(t, c)
		})
	}
}

// TestDeadlineHeaderBatch pins deadline propagation on /v1/batch: with the
// pool's workers stalled by a failpoint and a 60 ms budget, the request
// returns promptly and the unfinished frames answer "deadline". The frame
// pool must rebalance once the stall drains — the exactly-once recycling
// contract across the abandon path.
func TestDeadlineHeaderBatch(t *testing.T) {
	defer failpoint.DisableAll()
	sys, _, hs := testService(t, server.Options{}, pipeline.Config{Workers: 1, QueueDepth: 1, StreamWindow: 2})
	signs := signPattern(0, 6)
	frames := signFrames(t, sys, signs)

	if err := failpoint.Enable(failpoint.PipelineWorker, "delay(100ms)"); err != nil {
		t.Fatal(err)
	}
	c := client.New(hs.URL, nil)
	req, err := c.Post(context.Background(), "/v1/batch", frames)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(server.DeadlineHeader, "60")
	t0 := time.Now()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Results []server.FrameResult `json:"results"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("deadline batch: %d", resp.StatusCode)
	}
	if el := time.Since(t0); el > 2*time.Second {
		t.Fatalf("deadline batch took %v", el)
	}
	deadlined := 0
	for _, r := range out.Results {
		if r.Err == server.ErrValueDeadline {
			deadlined++
		}
	}
	if deadlined == 0 {
		t.Fatalf("no frame answered deadline: %+v", out.Results)
	}
	failpoint.DisableAll()

	// The abandoned tail drains in the background; once it does, every pooled
	// frame must be back (gets == puts).
	deadline := time.Now().Add(5 * time.Second)
	for {
		stats, err := c.Statsz(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if stats.FramePool.Gets == stats.FramePool.Puts {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("frame pool unbalanced after drain: %+v", stats.FramePool)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestStreamDeadlineSacrificesSession pins the ordered-stream deadline
// semantics: a stream cannot skip frames, so an expired budget abandons the
// session — the response's unfinished tail answers "deadline" and the
// session is gone afterwards.
func TestStreamDeadlineSacrificesSession(t *testing.T) {
	defer failpoint.DisableAll()
	sys, _, hs := testService(t, server.Options{}, pipeline.Config{Workers: 1, QueueDepth: 1, StreamWindow: 2})
	signs := signPattern(0, 6)
	frames := signFrames(t, sys, signs)

	c := client.New(hs.URL, nil)
	st, err := c.OpenStream(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := failpoint.Enable(failpoint.PipelineWorker, "delay(100ms)"); err != nil {
		t.Fatal(err)
	}
	req, err := c.Post(context.Background(), "/v1/streams/"+st.ID+"/frames", frames)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(server.DeadlineHeader, "60")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Results []server.FrameResult `json:"results"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream deadline: %d", resp.StatusCode)
	}
	if out.Results[len(out.Results)-1].Err != server.ErrValueDeadline {
		t.Fatalf("tail not deadline: %+v", out.Results)
	}
	failpoint.DisableAll()

	// The sacrificed session must be gone.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(hs.URL + "/v1/streams/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusNotFound {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sacrificed session still answers %d", resp.StatusCode)
		}
		time.Sleep(10 * time.Millisecond)
	}
	_ = sys
}

// TestDeadlineTailCountsAsError pins one /statsz rule across the frame
// endpoints: a 200 whose tail answered "deadline" counts as one request
// and one error, on /v1/batch exactly as on /v1/streams/{id}/frames.
func TestDeadlineTailCountsAsError(t *testing.T) {
	for _, tc := range []struct {
		endpoint string
		path     func(t *testing.T, c *client.Client) string
	}{
		{"batch", func(*testing.T, *client.Client) string { return "/v1/batch" }},
		{"stream_frames", func(t *testing.T, c *client.Client) string {
			st, err := c.OpenStream(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			return "/v1/streams/" + st.ID + "/frames"
		}},
	} {
		t.Run(tc.endpoint, func(t *testing.T) {
			defer failpoint.DisableAll()
			sys, _, hs := testService(t, server.Options{}, pipeline.Config{Workers: 1, QueueDepth: 1, StreamWindow: 2})
			frames := signFrames(t, sys, signPattern(0, 6))
			c := client.New(hs.URL, nil)
			path := tc.path(t, c)
			if err := failpoint.Enable(failpoint.PipelineWorker, "delay(100ms)"); err != nil {
				t.Fatal(err)
			}
			req, err := c.Post(context.Background(), path, frames)
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set(server.DeadlineHeader, "60")
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			var out struct {
				Results []server.FrameResult `json:"results"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK || out.Results[len(out.Results)-1].Err != server.ErrValueDeadline {
				t.Fatalf("%s: %d, tail not deadline: %+v", path, resp.StatusCode, out.Results)
			}
			failpoint.DisableAll()
			stats, err := c.Statsz(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if ep := stats.Endpoints[tc.endpoint]; ep.Count != 1 || ep.Errors != 1 {
				t.Fatalf("statsz %s: %+v, want 1 request and 1 error", tc.endpoint, ep)
			}
		})
	}
}

// TestFailpointzEndpoint pins the debug endpoint: absent by default, and
// when mounted it arms/disarms points and lists their counters.
func TestFailpointzEndpoint(t *testing.T) {
	defer failpoint.DisableAll()
	_, _, plain := testService(t, server.Options{}, pipeline.Config{Workers: 1})
	if code := getJSON(t, plain.URL+"/failpointz", nil); code != http.StatusNotFound {
		t.Fatalf("failpointz mounted without DebugFailpoints: %d", code)
	}

	sys, _, hs := testService(t, server.Options{DebugFailpoints: true}, pipeline.Config{Workers: 1})
	body_, _ := json.Marshal(map[string]string{
		"name": failpoint.ServerDecode, "spec": "error(injected decode fault)",
	})
	resp, err := http.Post(hs.URL+"/failpointz", "application/json", bytes.NewReader(body_))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("arming via failpointz: %d", resp.StatusCode)
	}

	c := client.New(hs.URL, nil)
	frame := signFrames(t, sys, []body.Sign{body.SignNo})[0]
	if _, err := c.Recognize(context.Background(), frame); err == nil {
		t.Fatal("recognize succeeded under decode failpoint")
	}

	var points []failpoint.Status
	if code := getJSON(t, hs.URL+"/failpointz", &points); code != http.StatusOK {
		t.Fatalf("listing failpoints: %d", code)
	}
	found := false
	for _, p := range points {
		if p.Name == failpoint.ServerDecode && p.Fired > 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("decode failpoint not listed as fired: %+v", points)
	}

	body_, _ = json.Marshal(map[string]string{"name": failpoint.ServerDecode, "spec": "off"})
	resp, err = http.Post(hs.URL+"/failpointz", "application/json", bytes.NewReader(body_))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if res, err := c.Recognize(context.Background(), frame); err != nil || !res.OK {
		t.Fatalf("recognize after disarm: %+v %v", res, err)
	}
}
