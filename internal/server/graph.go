package server

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"sort"
	"time"

	"hdc/internal/flight"
	"hdc/internal/geom"
	"hdc/internal/gesture"
	"hdc/internal/graph"
	"hdc/internal/graph/nodes"
	"hdc/internal/imu"
	"hdc/internal/ledring"
	"hdc/internal/recognizer"
)

// graph.go serves the dataflow graph runtime: every in-tree node workload —
// sign recognition, gesture windows, LED-ring protocol decoding, IMU motion
// detection, flight-pattern classification — as a pooled, servable graph on
// the system's one worker pool. Graphs are built lazily on first use and
// live for the server's life; each node attaches its own pipeline.Owner
// ("recognize/classify", "ledring/decode", ...), so /statsz breaks pool
// traffic down per graph node exactly as it does per classic stream owner,
// and frames through the recognition graph show their node hops on /tracez.
//
//	GET  /v1/graph            workloads served + live per-graph stats
//	POST /v1/graph/recognize  frame batch → FrameResults (graph path)
//	POST /v1/graph/gesture    one observation window → gesture verdict
//	POST /v1/graph/ledring    LED-ring observations → decoded readings
//	POST /v1/graph/imu        IMU sample windows → motion readings
//	POST /v1/graph/flight     position trajectories → pattern readings
//
// The non-vision workloads ride on JSON values instead of frame uploads;
// admission control budgets their work items like frames. The recognition
// graph path is pinned byte-identical to /v1/batch's pool path by the
// differential tests (internal/graph/nodes and graph_endpoint_test.go).

// graphWorkloads are the servable topology names in listing order.
var graphWorkloads = []string{"recognize", "gesture", "ledring", "imu", "flight"}

// errUnknownGraph answers a workload name outside graphWorkloads.
var errUnknownGraph = errors.New("server: unknown graph workload")

// getGraph returns the named workload's graph, building it on first use.
// Build attaches per-node owners to the system's pool, so the first graph
// request also starts the pool, exactly like the first stream.
func (s *Server) getGraph(name string) (*graph.Graph, error) {
	s.graphMu.Lock()
	defer s.graphMu.Unlock()
	if s.graphsClosed {
		return nil, errDraining
	}
	if g, ok := s.graphs[name]; ok {
		return g, nil
	}
	var spec graph.Spec
	switch name {
	case "recognize":
		spec = nodes.RecognizeSpec(s.sys.Rec)
	case "gesture":
		spec = nodes.GestureSpec()
	case "ledring":
		spec = nodes.LedringSpec()
	case "imu":
		spec = nodes.IMUSpec()
	case "flight":
		spec = nodes.FlightSpec()
	default:
		return nil, errUnknownGraph
	}
	p, err := s.sys.Pool()
	if err != nil {
		return nil, err
	}
	g, err := graph.Build(spec, p, graph.Config{Recycle: s.framePool.Put})
	if err != nil {
		return nil, err
	}
	if s.graphs == nil {
		s.graphs = make(map[string]*graph.Graph)
	}
	s.graphs[name] = g
	return g, nil
}

// closeGraphs tears the built graphs down gracefully (queued messages
// drain). Called from Server.Close, before the system closes the pool.
func (s *Server) closeGraphs() {
	s.graphMu.Lock()
	graphs := s.graphs
	s.graphs = nil
	s.graphsClosed = true
	s.graphMu.Unlock()
	for _, g := range graphs {
		g.Close()
	}
}

// graphStats snapshots the built graphs, sorted by name.
func (s *Server) graphStats() []graph.Stats {
	s.graphMu.Lock()
	defer s.graphMu.Unlock()
	out := make([]graph.Stats, 0, len(s.graphs))
	for _, g := range s.graphs {
		out = append(out, g.Stats())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// graphIndexResponse is the JSON body of GET /v1/graph.
type graphIndexResponse struct {
	// Workloads lists every servable topology (gesture only when enabled).
	Workloads []string `json:"workloads"`
	// Graphs carries live stats for the topologies built so far.
	Graphs []graph.Stats `json:"graphs"`
}

// handleGraphIndex answers GET /v1/graph.
func (s *Server) handleGraphIndex(w http.ResponseWriter, r *http.Request) {
	names := make([]string, 0, len(graphWorkloads))
	for _, n := range graphWorkloads {
		if n == "gesture" && s.opts.Gesture == nil {
			continue
		}
		names = append(names, n)
	}
	writeJSON(w, http.StatusOK, graphIndexResponse{Workloads: names, Graphs: s.graphStats()})
}

// runGraphValues is the shared body of the value-workload endpoints:
// admission, deadline, then one Process batch through the named graph.
func (s *Server) runGraphValues(w http.ResponseWriter, r *http.Request, name string, vals []any) ([]graph.Output, bool) {
	if !s.acceptingWork() {
		writeError(w, http.StatusServiceUnavailable, errDraining)
		return nil, false
	}
	if len(vals) == 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("server: empty %s batch", name))
		return nil, false
	}
	if len(vals) > s.opts.MaxBatch {
		writeError(w, http.StatusBadRequest, fmt.Errorf("server: %s batch of %d exceeds limit %d", name, len(vals), s.opts.MaxBatch))
		return nil, false
	}
	ctx, done, ok := s.admitWork(w, r, len(vals))
	if !ok {
		return nil, false
	}
	defer done()
	g, err := s.getGraph(name)
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, err)
		return nil, false
	}
	in := make([]graph.Input, len(vals))
	for i, v := range vals {
		in[i] = graph.Input{Value: v}
	}
	out, err := g.Process(ctx, in)
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, err)
		return nil, false
	}
	return out, true
}

// handleGraphRecognize answers POST /v1/graph/recognize: a frame batch in
// any of the wire encodings through the recognition graph — the same
// verdicts as /v1/batch, served by the graph runtime.
func (s *Server) handleGraphRecognize(w http.ResponseWriter, r *http.Request) (int, bool) {
	if !s.acceptingWork() {
		writeError(w, http.StatusServiceUnavailable, errDraining)
		return 0, true
	}
	frames, ctx, done, ok := s.admitFrames(w, r, s.opts.MaxBatch, false)
	if !ok {
		return 0, true
	}
	defer done()
	n := len(frames)
	g, err := s.getGraph("recognize")
	if err != nil {
		releaseFrames(&s.framePool, frames)
		writeError(w, http.StatusServiceUnavailable, err)
		return n, true
	}
	in := make([]graph.Input, n)
	for i, f := range frames {
		in[i] = graph.Input{Frame: f}
	}
	// Process owns the frames from here: every one recycles through the
	// graph's Recycle hook (the server frame pool) exactly once.
	out, err := g.Process(ctx, in)
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, err)
		return n, true
	}
	results := make([]FrameResult, n)
	for i, o := range out {
		// A message that never reached the classify node (abandoned or
		// refused) carries no Result, only the error.
		res, _ := o.Value.(recognizer.Result)
		results[i] = resultToWire(res, o.Err)
	}
	writeJSON(w, http.StatusOK, batchResponse{Results: results})
	return n, false
}

// handleGraphGesture answers POST /v1/gesture and POST /v1/graph/gesture:
// one observation window through the gesture graph, classified at
// collection. Decode failures and sub-cycle windows are 400; a window that
// matched nothing is a 200 with error "no_gesture" (a verdict, not a
// failure).
func (s *Server) handleGraphGesture(w http.ResponseWriter, r *http.Request) (int, bool) {
	if !s.acceptingWork() {
		writeError(w, http.StatusServiceUnavailable, errDraining)
		return 0, true
	}
	frames, ctx, done, ok := s.admitFrames(w, r, s.opts.MaxBatch, false)
	if !ok {
		return 0, true
	}
	defer done()
	g, err := s.getGraph("gesture")
	if err != nil {
		releaseFrames(&s.framePool, frames)
		writeError(w, http.StatusServiceUnavailable, err)
		return len(frames), true
	}
	// ClassifyGestureWindow owns the frames: accepted ones recycle through
	// the graph's hook, refused ones (short window) through onFrame.
	m, err := nodes.ClassifyGestureWindow(ctx, g, s.opts.Gesture, frames, s.framePool.Put)
	if errors.Is(err, gesture.ErrShortWindow) {
		writeError(w, http.StatusBadRequest, err)
		return len(frames), true
	}
	out := gestureMatchToWire(m, err)
	failed := err != nil && !errors.Is(err, gesture.ErrNoGesture)
	writeJSON(w, http.StatusOK, out)
	return len(frames), failed
}

// ledringRing is one LED-ring observation on the wire: successive
// whole-ring frames, each LED a Color ordinal (0 off, 1 red, 2 green,
// 3 white).
type ledringRing struct {
	Frames [][]int `json:"frames"`
}

// graphLedringRequest is the JSON body of POST /v1/graph/ledring.
type graphLedringRequest struct {
	Rings []ledringRing `json:"rings"`
}

// LedringResult is one decoded ring on the wire. Field errors are per
// channel — a danger ring legitimately has no heading boundary.
type LedringResult struct {
	HeadingDeg  float64 `json:"heading_deg"`
	HeadingErr  string  `json:"heading_error,omitempty"`
	QuantErrDeg float64 `json:"quant_err_deg"`
	Danger      bool    `json:"danger"`
	Pulse       string  `json:"pulse"`
	PulseErr    string  `json:"pulse_error,omitempty"`
	// Err is the whole-observation failure (empty input, shed, drain).
	Err string `json:"error,omitempty"`
}

// handleGraphLedring answers POST /v1/graph/ledring.
func (s *Server) handleGraphLedring(w http.ResponseWriter, r *http.Request) (int, bool) {
	req, err := decodeGraphBody(w, r, s.opts.MaxBodyBytes, scanLedring)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return 0, true
	}
	vals := make([]any, len(req.Rings))
	for i, ring := range req.Rings {
		frames := make([][]ledring.Color, len(ring.Frames))
		for j, f := range ring.Frames {
			leds := make([]ledring.Color, len(f))
			for k, c := range f {
				leds[k] = ledring.Color(c)
			}
			frames[j] = leds
		}
		vals[i] = nodes.LedringInput{Frames: frames}
	}
	out, ok := s.runGraphValues(w, r, "ledring", vals)
	if !ok {
		return len(vals), true
	}
	results := make([]LedringResult, len(out))
	failed := false
	for i, o := range out {
		if rd, k := o.Value.(*nodes.LedringReading); k && o.Err == nil {
			results[i] = LedringResult{
				HeadingDeg:  rd.Heading.Deg(),
				HeadingErr:  rd.HeadingErr,
				QuantErrDeg: rd.QuantErrDeg,
				Danger:      rd.Danger,
				Pulse:       rd.Pulse.String(),
				PulseErr:    rd.PulseErr,
			}
			continue
		}
		results[i] = LedringResult{Err: errValue(o.Err)}
		failed = true
	}
	writeJSON(w, http.StatusOK, struct {
		Results []LedringResult `json:"results"`
	}{results})
	return len(vals), failed
}

// imuSample is one IMU sample on the wire.
type imuSample struct {
	TS       float64    `json:"t_s"`
	Accel    [3]float64 `json:"accel"`
	GyroZ    float64    `json:"gyro_z"`
	BaroAltM float64    `json:"baro_alt_m"`
}

// graphIMURequest is the JSON body of POST /v1/graph/imu.
type graphIMURequest struct {
	Windows [][]imuSample `json:"windows"`
}

// IMUResult is one window's motion reading on the wire.
type IMUResult struct {
	State       string `json:"state"`
	Transitions int    `json:"transitions"`
	Samples     int    `json:"samples"`
	Err         string `json:"error,omitempty"`
}

// handleGraphIMU answers POST /v1/graph/imu.
func (s *Server) handleGraphIMU(w http.ResponseWriter, r *http.Request) (int, bool) {
	req, err := decodeGraphBody(w, r, s.opts.MaxBodyBytes, scanIMU)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return 0, true
	}
	vals := make([]any, len(req.Windows))
	for i, win := range req.Windows {
		samples := make(nodes.IMUWindow, len(win))
		for j, sm := range win {
			samples[j] = imu.Sample{
				T:        secondsToDuration(sm.TS),
				Accel:    geom.V3(sm.Accel[0], sm.Accel[1], sm.Accel[2]),
				GyroZ:    sm.GyroZ,
				BaroAltM: sm.BaroAltM,
			}
		}
		vals[i] = samples
	}
	out, ok := s.runGraphValues(w, r, "imu", vals)
	if !ok {
		return len(vals), true
	}
	results := make([]IMUResult, len(out))
	failed := false
	for i, o := range out {
		if rd, k := o.Value.(nodes.IMUReading); k && o.Err == nil {
			results[i] = IMUResult{State: rd.FinalLabel, Transitions: rd.Transitions, Samples: rd.Samples}
			continue
		}
		results[i] = IMUResult{Err: errValue(o.Err)}
		failed = true
	}
	writeJSON(w, http.StatusOK, struct {
		Results []IMUResult `json:"results"`
	}{results})
	return len(vals), failed
}

// flightSample is one trajectory sample on the wire.
type flightSample struct {
	TS         float64    `json:"t_s"`
	Pos        [3]float64 `json:"pos"`
	HeadingDeg float64    `json:"heading_deg"`
}

// graphFlightRequest is the JSON body of POST /v1/graph/flight.
type graphFlightRequest struct {
	Trajectories [][]flightSample `json:"trajectories"`
}

// FlightResult is one trajectory's classified pattern on the wire.
type FlightResult struct {
	Pattern string `json:"pattern,omitempty"`
	Err     string `json:"error,omitempty"`
}

// handleGraphFlight answers POST /v1/graph/flight.
func (s *Server) handleGraphFlight(w http.ResponseWriter, r *http.Request) (int, bool) {
	req, err := decodeGraphBody(w, r, s.opts.MaxBodyBytes, scanFlight)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return 0, true
	}
	vals := make([]any, len(req.Trajectories))
	for i, tr := range req.Trajectories {
		samples := make(flight.Trajectory, len(tr))
		for j, sm := range tr {
			samples[j] = flight.Sample{
				T:       sm.TS,
				Pos:     geom.V3(sm.Pos[0], sm.Pos[1], sm.Pos[2]),
				Heading: geom.NewHeading(sm.HeadingDeg * math.Pi / 180),
			}
		}
		vals[i] = samples
	}
	out, ok := s.runGraphValues(w, r, "flight", vals)
	if !ok {
		return len(vals), true
	}
	results := make([]FlightResult, len(out))
	failed := false
	for i, o := range out {
		if rd, k := o.Value.(nodes.FlightReading); k && o.Err == nil {
			results[i] = FlightResult{Pattern: rd.Label}
			continue
		}
		results[i] = FlightResult{Err: errValue(o.Err)}
		failed = true
	}
	writeJSON(w, http.StatusOK, struct {
		Results []FlightResult `json:"results"`
	}{results})
	return len(vals), failed
}

// secondsToDuration converts a wire t_s to the IMU sample clock.
func secondsToDuration(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}
