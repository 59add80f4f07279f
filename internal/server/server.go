// Package server is the networked recognition service: an HTTP/JSON front
// over one shared core.System worker pool, so many concurrent operators
// (ground stations, fleet supervisors, analysis jobs) draw on a single
// recognition capacity pool instead of each owning a pipeline. The paper's
// one-drone/one-recogniser loop stays intact underneath; this layer is the
// ROADMAP's "batch negotiation service" scaling step, shaped after the
// shared perception boundary of dataflow robotic middlewares.
//
// Endpoints:
//
//	POST   /v1/recognize           one frame  → one FrameResult
//	POST   /v1/batch               ordered batch → per-frame FrameResults
//	POST   /v1/streams             open a session-scoped ordered stream
//	POST   /v1/streams/{id}/frames submit frames, receive their ordered results
//	GET    /v1/streams/{id}        session info
//	DELETE /v1/streams/{id}        close the session
//	POST   /v1/gesture             classify one gesture observation window (the gesture graph)
//	POST   /v1/gesture/streams     open a live-feed gesture session (ring-buffer ingest)
//	POST   /v1/gesture/streams/{id}/frames  offer live frames, poll verdicts
//	GET    /v1/gesture/streams/{id}         session counters
//	DELETE /v1/gesture/streams/{id}         flush and fetch final verdicts
//	GET    /v1/graph               served dataflow workloads + live per-graph stats
//	POST   /v1/graph/{workload}    one batch through a served graph (recognize, gesture,
//	                               ledring, imu, flight — see graph.go)
//	GET    /healthz                liveness + drain signal
//	GET    /statsz                 pool occupancy, ingest drops, per-endpoint latency, mem
//
// The gesture endpoints exist when Options.Gesture is set. A one-shot window
// runs through the gesture graph, so /v1/gesture and /v1/graph/gesture are
// one handler; live sessions put a bounded drop-oldest ring
// (pipeline.Source) in front of the pool so a camera-cadence feed degrades
// to frame dropping instead of stalling.
//
// Frames travel as JSON (width/height + base64 pixels), raw
// application/octet-stream planes (the allocation-free hot path: pixels are
// read straight into pooled raster.Gray buffers) or single image/png bodies.
// See DESIGN.md §"The service layer" for the wire contracts and drain
// semantics.
package server

import (
	"errors"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"hdc/internal/core"
	"hdc/internal/failpoint"
	"hdc/internal/gesture"
	"hdc/internal/graph"
	"hdc/internal/raster"
	"hdc/internal/sax/store"
)

// Options tunes the service. The zero value serves with the defaults.
type Options struct {
	// MaxBatch bounds the frames accepted by one batch or stream-frames
	// request (default 256).
	MaxBatch int
	// MaxBodyBytes caps a request body before any decoding starts (default
	// 64 MB) — oversized uploads fail fast instead of materialising.
	MaxBodyBytes int64
	// StreamIdleTimeout is how long a stream session may sit idle before
	// the reaper abandons it (default 2 minutes).
	StreamIdleTimeout time.Duration
	// Gesture enables the dynamic-signal endpoints (/v1/gesture,
	// /v1/graph/gesture and the live-feed gesture sessions) when set. A
	// one-shot window runs through the gesture graph on the system's worker
	// pool; a live session shares the same pool through the recogniser's
	// proc-stream hook. Nil leaves the endpoints answering 404.
	Gesture *gesture.Recognizer
	// GestureBuffer overrides the live sessions' ingest ring capacity
	// (default: two observation windows).
	GestureBuffer int
	// Store, when set, is the on-disk sign dictionary backing the system's
	// recognizer (internal/sax/store). The server does not own it — the
	// process that opened it closes it after shutdown — but /statsz reports
	// its shape (segments, tail, WAL backlog, compaction health), and a
	// store latched read-only (sticky write failure) drops the replica out
	// of readiness. Recognition answers are unchanged by the latch.
	Store *store.Store
	// MaxInflightFrames is the admission-control cap: the total frames (or
	// graph work items) allowed in recognize, batch, stream-frames, gesture
	// and graph requests at once (default 1024). A request that would cross
	// it answers 429 with Retry-After so overload sheds at the door instead
	// of queueing unboundedly.
	MaxInflightFrames int
	// DebugFailpoints mounts /failpointz (list/arm/disarm fault-injection
	// points). Debug builds and chaos drills only — never production.
	DebugFailpoints bool
	// now overrides the clock in tests.
	now func() time.Time
}

func (o Options) withDefaults() Options {
	if o.MaxBatch <= 0 {
		o.MaxBatch = 256
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 64 << 20
	}
	if o.StreamIdleTimeout <= 0 {
		o.StreamIdleTimeout = 2 * time.Minute
	}
	if o.MaxInflightFrames <= 0 {
		o.MaxInflightFrames = 1024
	}
	if o.now == nil {
		o.now = time.Now
	}
	return o
}

// Server fronts one core.System. It implements http.Handler; mount it on
// any mux or serve it directly. Construct with New, stop with Close.
type Server struct {
	sys  *core.System
	opts Options
	mux  *http.ServeMux

	framePool raster.Pool
	sessions  *sessionTable
	started   time.Time
	draining  atomic.Bool

	inflight atomic.Int64  // admission-control frame budget currently out
	rejected atomic.Uint64 // requests refused with 429
	degraded atomic.Uint64 // frames answered outside the pool, under overload

	statRecognize endpointStats
	statBatch     endpointStats
	statStream    endpointStats
	statGesture   endpointStats
	statFeed      endpointStats
	statGraph     endpointStats

	// graphs is the lazily built registry of served dataflow topologies
	// (graph.go); graphsClosed latches once Close tears them down so a late
	// request cannot rebuild a graph on a closing pool.
	graphMu      sync.Mutex
	graphs       map[string]*graph.Graph
	graphsClosed bool
}

// New builds the service over sys. The system's worker pool starts lazily
// with the first recognition request; the caller keeps ownership of sys and
// closes it after the server (see Drain for the ordering).
func New(sys *core.System, opts Options) *Server {
	s := &Server{
		sys:  sys,
		opts: opts.withDefaults(),
		mux:  http.NewServeMux(),
	}
	s.started = s.opts.now()
	s.sessions = newSessionTable(s.opts.StreamIdleTimeout, s.opts.now)

	s.mux.HandleFunc("POST /v1/recognize", s.instrument(&s.statRecognize, s.handleRecognize))
	s.mux.HandleFunc("POST /v1/batch", s.instrument(&s.statBatch, s.handleBatch))
	s.mux.HandleFunc("POST /v1/streams", s.handleStreamCreate)
	s.mux.HandleFunc("GET /v1/streams/{id}", s.handleStreamInfo)
	s.mux.HandleFunc("POST /v1/streams/{id}/frames", s.instrument(&s.statStream, s.handleStreamFrames))
	s.mux.HandleFunc("DELETE /v1/streams/{id}", s.handleStreamDelete)
	if s.opts.Gesture != nil {
		s.mux.HandleFunc("POST /v1/gesture", s.instrument(&s.statGesture, s.handleGraphGesture))
		s.mux.HandleFunc("POST /v1/gesture/streams", s.handleGestureStreamCreate)
		s.mux.HandleFunc("GET /v1/gesture/streams/{id}", s.handleGestureStreamInfo)
		s.mux.HandleFunc("POST /v1/gesture/streams/{id}/frames", s.instrument(&s.statFeed, s.handleGestureFeed))
		s.mux.HandleFunc("DELETE /v1/gesture/streams/{id}", s.handleGestureStreamDelete)
	}
	s.mux.HandleFunc("GET /v1/graph", s.handleGraphIndex)
	s.mux.HandleFunc("POST /v1/graph/recognize", s.instrument(&s.statGraph, s.handleGraphRecognize))
	s.mux.HandleFunc("POST /v1/graph/ledring", s.instrument(&s.statGraph, s.handleGraphLedring))
	s.mux.HandleFunc("POST /v1/graph/imu", s.instrument(&s.statGraph, s.handleGraphIMU))
	s.mux.HandleFunc("POST /v1/graph/flight", s.instrument(&s.statGraph, s.handleGraphFlight))
	if s.opts.Gesture != nil {
		s.mux.HandleFunc("POST /v1/graph/gesture", s.instrument(&s.statGraph, s.handleGraphGesture))
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /livez", s.handleLivez)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /statsz", s.handleStatsz)
	s.mux.HandleFunc("GET /tracez", s.handleTracez)
	if s.opts.DebugFailpoints {
		s.mux.HandleFunc("GET /failpointz", s.handleFailpointz)
		s.mux.HandleFunc("POST /failpointz", s.handleFailpointz)
	}
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Drain flips the server into draining: /healthz answers 503 (so load
// balancers stop routing here) and new recognition work is refused, while
// requests already executing finish normally. The full graceful-shutdown
// order for a process is: Drain → http.Server.Shutdown (waits for in-flight
// requests) → Close (ends sessions) → core.System.Close (stops the pool).
func (s *Server) Drain() { s.draining.Store(true) }

// Close ends the stream sessions, stops the idle reaper and drains the
// served graphs. In-flight session requests finish first; it does not close
// the underlying system.
func (s *Server) Close() {
	s.sessions.close()
	s.closeGraphs()
}

// errDraining is returned to requests refused because the server is
// draining or its pool has shut down.
var errDraining = errors.New("server: draining")

// acceptingWork reports whether new recognition work may start.
func (s *Server) acceptingWork() bool {
	if s.draining.Load() {
		return false
	}
	if st, started := s.sys.PoolStats(); started && st.Closed {
		return false
	}
	return true
}

// instrument wraps a work handler with the endpoint's latency/volume
// accounting. The handler returns how many frames it carried and whether it
// failed.
func (s *Server) instrument(st *endpointStats, h func(http.ResponseWriter, *http.Request) (frames int, failed bool)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		t0 := s.opts.now()
		frames, failed := h(w, r)
		st.record(s.opts.now().Sub(t0), frames, failed)
	}
}

// handleRecognize answers POST /v1/recognize: one frame in, one verdict out.
func (s *Server) handleRecognize(w http.ResponseWriter, r *http.Request) (int, bool) {
	return s.recognizeFrames(w, r, 1, true)
}

// handleBatch answers POST /v1/batch: an ordered batch through the shared
// pool, one result slot per frame in input order.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) (int, bool) {
	return s.recognizeFrames(w, r, s.opts.MaxBatch, false)
}

// recognizeFrames is the shared body of /v1/recognize and /v1/batch: the
// frame preamble, then either the pool or — under overload — the same
// recognizer on the request goroutine.
func (s *Server) recognizeFrames(w http.ResponseWriter, r *http.Request, maxBatch int, single bool) (int, bool) {
	if !s.acceptingWork() {
		writeError(w, http.StatusServiceUnavailable, errDraining)
		return 0, true
	}
	frames, ctx, done, ok := s.admitFrames(w, r, maxBatch, single)
	if !ok {
		return 0, true
	}
	defer done()
	n := len(frames)

	var results []FrameResult
	if s.overloaded() {
		results = s.recognizeDegraded(frames)
	} else {
		res, errs, err := s.sys.RecognizeBatchContext(ctx, frames, s.framePool.Put)
		if err != nil {
			// Top-level refusal: no frame was consumed, so they are still ours.
			releaseFrames(&s.framePool, frames)
			writeError(w, http.StatusServiceUnavailable, errDraining)
			return n, true
		}
		results = batchToWire(res, errs)
	}
	if single {
		writeJSON(w, http.StatusOK, results[0])
	} else {
		writeJSON(w, http.StatusOK, batchResponse{Results: results})
	}
	return n, interrupted(results)
}

// handleStreamCreate answers POST /v1/streams: opens an ordered session on
// the shared pool.
func (s *Server) handleStreamCreate(w http.ResponseWriter, r *http.Request) {
	if !s.acceptingWork() {
		writeError(w, http.StatusServiceUnavailable, errDraining)
		return
	}
	if err := failpoint.Inject(failpoint.ServerSession); err != nil {
		writeError(w, http.StatusServiceUnavailable, err)
		return
	}
	st, err := s.sys.NewStream()
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, errDraining)
		return
	}
	stats, _ := s.sys.PoolStats()
	sess := s.sessions.add(st, stats.StreamWindow)
	writeJSON(w, http.StatusCreated, streamInfo{ID: sess.id, Window: sess.window})
}

// getRecognitionSession looks up a recognition-stream session. Gesture
// sessions share the table and the ID namespace but have no pipeline
// stream (sess.st is nil), so a cross-kind ID must 404 here exactly like
// an unknown one — not reach a nil dereference.
func (s *Server) getRecognitionSession(id string) (*session, bool) {
	sess, ok := s.sessions.get(id)
	if !ok || sess.st == nil {
		return nil, false
	}
	return sess, true
}

// handleStreamInfo answers GET /v1/streams/{id}.
func (s *Server) handleStreamInfo(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.getRecognitionSession(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("server: unknown stream"))
		return
	}
	writeJSON(w, http.StatusOK, streamInfo{
		ID: sess.id, Window: sess.window, Submitted: sess.submitted.Load(),
	})
}

// handleStreamDelete answers DELETE /v1/streams/{id}: graceful session end.
func (s *Server) handleStreamDelete(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.getRecognitionSession(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("server: unknown stream"))
		return
	}
	sess.mu.Lock() // waits for an in-flight frames request to finish
	if !sess.closed {
		sess.closed = true
		sess.st.Close()
		s.sessions.remove(sess.id)
	}
	sess.mu.Unlock()
	w.WriteHeader(http.StatusNoContent)
}

// handleStreamFrames answers POST /v1/streams/{id}/frames: the request's
// frames enter the session's stream in order and the response carries their
// results, still in order. Requests on one session are serialised; the
// stream's in-flight window applies back-pressure by blocking Submit (and
// therefore the request) rather than buffering unboundedly. A DeadlineHeader
// budget bounds that blocking: when it expires the session is sacrificed
// (ordered streams cannot skip frames, so the only way to honour the
// deadline is to abandon the stream) and the response's unfinished tail is
// marked "deadline".
func (s *Server) handleStreamFrames(w http.ResponseWriter, r *http.Request) (int, bool) {
	sess, ok := s.getRecognitionSession(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("server: unknown stream"))
		return 0, true
	}
	frames, ctx, done, ok := s.admitFrames(w, r, s.opts.MaxBatch, false)
	if !ok {
		return 0, true
	}
	defer done()

	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.closed {
		releaseFrames(&s.framePool, frames)
		writeError(w, http.StatusGone, errors.New("server: stream closed"))
		return 0, true
	}
	sess.touch(s.opts.now())
	defer func() { sess.touch(s.opts.now()) }()

	res, errs, claimed, err := sess.st.Batch(ctx, frames, s.framePool.Put)
	if err != nil {
		// Batch abandoned the stream on the expired deadline: sacrifice the
		// session.
		sess.closed = true
		s.sessions.remove(sess.id)
	}
	sess.submitted.Add(uint64(claimed))
	// Partial results are still results: the response is 200 with the
	// undeliverable tail marked, so an operator mid-stream can tell exactly
	// which frames made it.
	results := batchToWire(res, errs)
	writeJSON(w, http.StatusOK, batchResponse{Results: results})
	return len(frames), interrupted(results)
}

// handleHealthz answers GET /healthz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	stats, started := s.sys.PoolStats()
	if s.draining.Load() || (started && stats.Closed) {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleStatsz answers GET /statsz.
func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	pool, started := s.sys.PoolStats()
	gets, puts := s.framePool.Stats()
	resp := StatsResponse{
		UptimeS:  s.opts.now().Sub(s.started).Seconds(),
		Draining: s.draining.Load(),
		Admission: AdmissionSnapshot{
			InflightFrames:    s.inflight.Load(),
			MaxInflightFrames: s.opts.MaxInflightFrames,
			Rejected:          s.rejected.Load(),
			DegradedFrames:    s.degraded.Load(),
			Overloaded:        s.overloaded(),
			StoreReadOnly:     s.storeReadOnly(),
		},
		Pool: PoolSnapshot{
			Started:        started,
			Closed:         pool.Closed,
			Workers:        pool.Workers,
			QueueLen:       pool.QueueLen,
			QueueCap:       pool.QueueCap,
			Streams:        pool.Streams,
			IngestAccepted: pool.IngestAccepted,
			IngestDropped:  pool.IngestDropped,
			Attached:       pool.Attached,
			Owners:         ownerSnapshots(pool.Owners),
		},
		FramePool: FramePoolSnapshot{Gets: gets, Puts: puts},
		Sessions:  s.sessions.snapshot(),
		Endpoints: map[string]EndpointSnapshot{
			"recognize":     s.statRecognize.snapshot(),
			"batch":         s.statBatch.snapshot(),
			"stream_frames": s.statStream.snapshot(),
			"graph":         s.statGraph.snapshot(),
		},
		Graphs: s.graphStats(),
		Mem:    memSnapshot(),
	}
	if s.opts.Store != nil {
		st := s.opts.Store.Stats()
		resp.Store = &st
	}
	if s.opts.Gesture != nil {
		resp.Endpoints["gesture"] = s.statGesture.snapshot()
		resp.Endpoints["gesture_feed"] = s.statFeed.snapshot()
	}
	writeJSON(w, http.StatusOK, resp)
}
