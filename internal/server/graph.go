package server

import (
	"errors"
	"fmt"
	"net/http"
	"sort"
	"time"

	"hdc/internal/gesture"
	"hdc/internal/graph"
	"hdc/internal/graph/nodes"
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

// serveGraphValues is the whole of a value-workload endpoint: the body
// scanned straight into the graph's inputs, admission and deadline, one
// Process batch through the named graph, and one result per input, in
// order. reading maps an output to its wire result; by the frame endpoints'
// rule, the request counts as failed in /statsz only when some slot was
// interrupted (deadline or draining), never for a verdict on its input.
func serveGraphValues[T, R any](s *Server, w http.ResponseWriter, r *http.Request, name string, scan func(*wireScanner) ([]T, bool), reading func(graph.Output) R) (int, bool) {
	vals, err := decodeGraphBody(w, r, s.opts.MaxBodyBytes, scan)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return 0, true
	}
	n := len(vals)
	if !s.acceptingWork() {
		writeError(w, http.StatusServiceUnavailable, errDraining)
		return n, true
	}
	if n == 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("server: empty %s batch", name))
		return n, true
	}
	if n > s.opts.MaxBatch {
		writeError(w, http.StatusBadRequest, fmt.Errorf("server: %s batch of %d exceeds limit %d", name, n, s.opts.MaxBatch))
		return n, true
	}
	ctx, done, ok := s.admitWork(w, r, n)
	if !ok {
		return n, true
	}
	defer done()
	g, err := s.getGraph(name)
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, err)
		return n, true
	}
	in := make([]graph.Input, n)
	for i, v := range vals {
		in[i] = graph.Input{Value: v}
	}
	out, err := g.Process(ctx, in)
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, err)
		return n, true
	}
	results := make([]R, n)
	failed := false
	for i, o := range out {
		results[i] = reading(o)
		failed = failed || interruption(errValue(o.Err))
	}
	writeJSON(w, http.StatusOK, struct {
		Results []R `json:"results"`
	}{results})
	return n, failed
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
	return n, interrupted(results)
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
	writeJSON(w, http.StatusOK, out)
	return len(frames), interruption(out.Err)
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
	return serveGraphValues(s, w, r, "ledring", scanLedring, ledringResult)
}

// ledringResult maps one ledring graph output to its wire result.
func ledringResult(o graph.Output) LedringResult {
	rd, ok := o.Value.(*nodes.LedringReading)
	if !ok || o.Err != nil {
		return LedringResult{Err: errValue(o.Err)}
	}
	return LedringResult{
		HeadingDeg:  rd.Heading.Deg(),
		HeadingErr:  rd.HeadingErr,
		QuantErrDeg: rd.QuantErrDeg,
		Danger:      rd.Danger,
		Pulse:       rd.Pulse.String(),
		PulseErr:    rd.PulseErr,
	}
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
	return serveGraphValues(s, w, r, "imu", scanIMU, imuResult)
}

// imuResult maps one imu graph output to its wire result.
func imuResult(o graph.Output) IMUResult {
	rd, ok := o.Value.(nodes.IMUReading)
	if !ok || o.Err != nil {
		return IMUResult{Err: errValue(o.Err)}
	}
	return IMUResult{State: rd.FinalLabel, Transitions: rd.Transitions, Samples: rd.Samples}
}

// FlightResult is one trajectory's classified pattern on the wire.
type FlightResult struct {
	Pattern string `json:"pattern,omitempty"`
	Err     string `json:"error,omitempty"`
}

// handleGraphFlight answers POST /v1/graph/flight.
func (s *Server) handleGraphFlight(w http.ResponseWriter, r *http.Request) (int, bool) {
	return serveGraphValues(s, w, r, "flight", scanFlight, flightResult)
}

// flightResult maps one flight graph output to its wire result.
func flightResult(o graph.Output) FlightResult {
	rd, ok := o.Value.(nodes.FlightReading)
	if !ok || o.Err != nil {
		return FlightResult{Err: errValue(o.Err)}
	}
	return FlightResult{Pattern: rd.Label}
}

// secondsToDuration converts a wire t_s to the IMU sample clock.
func secondsToDuration(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}
