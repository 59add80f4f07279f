package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"

	"hdc/internal/imu"
	"hdc/internal/ledring"
	"hdc/internal/pipeline"
	"hdc/internal/raster"
	"hdc/internal/server"
	"hdc/internal/server/client"
)

// graph_endpoint_test.go covers the /v1/graph family: the recognition graph
// endpoint is pinned result-identical to /v1/batch (the CI differential for
// the served path), the value workloads answer against direct package
// calls, and the graph registry shows up on /v1/graph and /statsz.

// postGraphJSON posts one JSON body and decodes the response into out,
// failing on a non-200.
func postGraphJSON(t *testing.T, url string, body any, out any) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("POST %s: %d (%s)", url, resp.StatusCode, e.Error)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

// wireFrames converts rendered frames to the JSON wire form.
func wireFrames(frames []*raster.Gray) []server.Frame {
	out := make([]server.Frame, len(frames))
	for i, f := range frames {
		out[i] = server.FrameFromRaster(f)
	}
	return out
}

// TestGraphRecognizeMatchesBatch is the served-path differential: the same
// frames through /v1/batch (the legacy pool path) and /v1/graph/recognize
// (the graph runtime) must answer identically in every wire field except
// per-frame latency — including the no_sign slot for a blank frame.
func TestGraphRecognizeMatchesBatch(t *testing.T) {
	sys, _, hs := testService(t, server.Options{}, pipeline.Config{Workers: 4})
	signs := signPattern(0, 9)
	frames := signFrames(t, sys, signs)
	blank, err := raster.NewGray(128, 128)
	if err != nil {
		t.Fatal(err)
	}
	frames = append(frames, blank)

	c := client.New(hs.URL, nil)
	want, err := c.RecognizeBatch(context.Background(), frames)
	if err != nil {
		t.Fatal(err)
	}

	var got struct {
		Results []server.FrameResult `json:"results"`
	}
	postGraphJSON(t, hs.URL+"/v1/graph/recognize",
		map[string]any{"frames": wireFrames(frames)}, &got)

	if len(got.Results) != len(want) {
		t.Fatalf("graph answered %d slots for %d frames", len(got.Results), len(want))
	}
	for i := range want {
		a, b := want[i], got.Results[i]
		a.LatencyNS, b.LatencyNS = 0, 0
		if a != b {
			t.Fatalf("slot %d diverges:\nbatch: %+v\ngraph: %+v", i, want[i], got.Results[i])
		}
	}
	// The blank frame must error on both paths — the comparison above
	// already pinned the two equal; this guards the fixture itself staying
	// meaningful (an error slot really is exercised by the differential).
	if last := got.Results[len(frames)-1]; last.OK || last.Err == "" {
		t.Fatalf("blank slot answered without error: %+v", last)
	}
}

// TestGraphLedringEndpoint decodes a navigation ring, a danger ring and a
// take-off pulse through POST /v1/graph/ledring.
func TestGraphLedringEndpoint(t *testing.T) {
	_, _, hs := testService(t, server.Options{}, pipeline.Config{Workers: 2})

	nav := make([]int, 12)
	nav[2] = int(ledring.Red)
	nav[3] = int(ledring.Green)
	wantHeading, err := ledring.DecodeHeading([]ledring.Color{
		ledring.Off, ledring.Off, ledring.Red, ledring.Green,
		ledring.Off, ledring.Off, ledring.Off, ledring.Off,
		ledring.Off, ledring.Off, ledring.Off, ledring.Off,
	})
	if err != nil {
		t.Fatal(err)
	}
	danger := make([]int, 8)
	for i := range danger {
		danger[i] = int(ledring.Red)
	}
	green, white := make([]int, 8), make([]int, 8)
	for i := range green {
		green[i], white[i] = int(ledring.Green), int(ledring.White)
	}

	var got struct {
		Results []server.LedringResult `json:"results"`
	}
	postGraphJSON(t, hs.URL+"/v1/graph/ledring", map[string]any{
		"rings": []map[string]any{
			{"frames": [][]int{nav}},
			{"frames": [][]int{danger}},
			{"frames": [][]int{green, white}},
		},
	}, &got)
	if len(got.Results) != 3 {
		t.Fatalf("%d results for 3 rings", len(got.Results))
	}
	if r := got.Results[0]; r.Err != "" || r.HeadingErr != "" || r.HeadingDeg != wantHeading.Deg() || r.Danger {
		t.Fatalf("nav ring: %+v, want heading %v", r, wantHeading.Deg())
	}
	if r := got.Results[1]; r.Err != "" || !r.Danger || r.HeadingErr == "" {
		t.Fatalf("danger ring: %+v", r)
	}
	if r := got.Results[2]; r.Err != "" || r.PulseErr != "" || r.Pulse != "take-off" {
		t.Fatalf("pulse ring: %+v", r)
	}
}

// TestGraphIMUEndpoint runs one steady-hover window through
// POST /v1/graph/imu.
func TestGraphIMUEndpoint(t *testing.T) {
	_, _, hs := testService(t, server.Options{}, pipeline.Config{Workers: 2})
	window := make([]map[string]any, 64)
	for i := range window {
		window[i] = map[string]any{
			"t_s":        float64(i) * 0.02,
			"accel":      [3]float64{0, 0, imu.Gravity},
			"baro_alt_m": 5.0,
		}
	}
	var got struct {
		Results []server.IMUResult `json:"results"`
	}
	postGraphJSON(t, hs.URL+"/v1/graph/imu", map[string]any{
		"windows": []any{window},
	}, &got)
	if len(got.Results) != 1 {
		t.Fatalf("%d results for 1 window", len(got.Results))
	}
	r := got.Results[0]
	if r.Err != "" || r.Samples != 64 || r.State == "" || r.Transitions == 0 {
		t.Fatalf("imu reading: %+v", r)
	}
}

// TestGraphFlightEndpoint classifies a cruise trajectory through
// POST /v1/graph/flight, plus an error slot for a too-short one.
func TestGraphFlightEndpoint(t *testing.T) {
	_, _, hs := testService(t, server.Options{}, pipeline.Config{Workers: 2})
	cruise := make([]map[string]any, 16)
	for i := range cruise {
		cruise[i] = map[string]any{
			"t_s":         float64(i) * 0.5,
			"pos":         [3]float64{float64(i) * 0.8, 0, 5},
			"heading_deg": 0.0,
		}
	}
	var got struct {
		Results []server.FlightResult `json:"results"`
	}
	postGraphJSON(t, hs.URL+"/v1/graph/flight", map[string]any{
		"trajectories": []any{cruise, cruise[:1]},
	}, &got)
	if len(got.Results) != 2 {
		t.Fatalf("%d results for 2 trajectories", len(got.Results))
	}
	if r := got.Results[0]; r.Err != "" || r.Pattern == "" {
		t.Fatalf("cruise: %+v", r)
	}
	if r := got.Results[1]; r.Err == "" {
		t.Fatalf("short trajectory answered without error: %+v", r)
	}
}

// TestGraphIndexAndStatsz checks the registry surfaces: /v1/graph lists the
// servable workloads (no gesture without the option), and after traffic the
// built graph's stats appear both there and on /statsz, with its node owner
// attributed in the pool breakdown.
func TestGraphIndexAndStatsz(t *testing.T) {
	sys, _, hs := testService(t, server.Options{}, pipeline.Config{Workers: 2})

	var idx struct {
		Workloads []string `json:"workloads"`
		Graphs    []json.RawMessage
	}
	resp, err := http.Get(hs.URL + "/v1/graph")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&idx); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	want := []string{"recognize", "ledring", "imu", "flight"}
	if fmt.Sprint(idx.Workloads) != fmt.Sprint(want) {
		t.Fatalf("workloads %v, want %v", idx.Workloads, want)
	}
	if len(idx.Graphs) != 0 {
		t.Fatalf("graphs built before any traffic: %d", len(idx.Graphs))
	}

	frames := signFrames(t, sys, signPattern(0, 3))
	var out struct {
		Results []server.FrameResult `json:"results"`
	}
	postGraphJSON(t, hs.URL+"/v1/graph/recognize",
		map[string]any{"frames": wireFrames(frames)}, &out)

	c := client.New(hs.URL, nil)
	stats, err := c.Statsz(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Graphs) != 1 || stats.Graphs[0].Name != "recognize" || stats.Graphs[0].Submitted != 3 {
		t.Fatalf("statsz graphs: %+v", stats.Graphs)
	}
	if ep, ok := stats.Endpoints["graph"]; !ok || ep.Count != 1 {
		t.Fatalf("statsz graph endpoint: %+v (ok=%v)", stats.Endpoints["graph"], ok)
	}
	foundOwner := false
	for _, o := range stats.Pool.Owners {
		if o.Label == "recognize/classify" {
			foundOwner = true
		}
	}
	if !foundOwner {
		t.Fatalf("no recognize/classify owner in pool breakdown: %+v", stats.Pool.Owners)
	}
	if gets, puts := stats.FramePool.Gets, stats.FramePool.Puts; gets != puts {
		t.Fatalf("frame pool unbalanced after graph batch: %d gets, %d puts", gets, puts)
	}
}

// TestGraphBodyTrailingBytes pins the value endpoints' body contract: a
// canonical body is accepted with a whitespace tail, and anything else
// after the request's JSON value — a second value or garbage — answers 400;
// a case-folded key ("RINGS", "T_S", "POS") answers 400 whatever follows.
func TestGraphBodyTrailingBytes(t *testing.T) {
	_, _, hs := testService(t, server.Options{}, pipeline.Config{Workers: 2})
	bodies := map[string][2]string{ // canonical, case-folded
		"ledring": {`{"rings":[{"frames":[[0,1,2,3]]}]}`, `{"RINGS":[{"frames":[[0,1,2,3]]}]}`},
		"imu":     {`{"windows":[[{"t_s":0,"accel":[0,0,9.81]},{"t_s":0.1,"accel":[0,0,9.81]}]]}`, `{"windows":[[{"T_S":0,"accel":[0,0,9.81]}]]}`},
		"flight":  {`{"trajectories":[[{"t_s":0,"pos":[1,2,3]}]]}`, `{"trajectories":[[{"t_s":0,"POS":[1,2,3]}]]}`},
	}
	post := func(path, body string) int {
		t.Helper()
		resp, err := http.Post(hs.URL+"/v1/graph/"+path, "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for path, bs := range bodies {
		for k, b := range bs {
			want := http.StatusOK // canonical
			if k == 1 {
				want = http.StatusBadRequest // case-folded
			}
			for _, tail := range []string{"", " \n\t\r "} {
				if code := post(path, b+tail); code != want {
					t.Errorf("%s %q: %d, want %d", path, b+tail, code, want)
				}
			}
			for _, tail := range []string{" trailing garbage", b, "{}", "x", "\x00", " ]"} {
				if code := post(path, b+tail); code != http.StatusBadRequest {
					t.Errorf("%s %q: %d, want 400", path, b+tail, code)
				}
			}
		}
	}
}
