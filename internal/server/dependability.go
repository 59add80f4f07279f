package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"hdc/internal/failpoint"
	"hdc/internal/raster"
	"hdc/internal/recognizer"
)

// dependability.go is the server's overload and fault story: per-request
// deadlines (X-Deadline-Ms → context), admission control (a hard in-flight
// frame cap answered with 429 + Retry-After), graceful degradation (under
// queue pressure, single/batch recognition runs the same recognizer on the
// request goroutine instead of queuing on the pool, marked degraded:true),
// the liveness/readiness split (/livez answers 200 while the
// process serves at all — even draining — while /readyz reflects whether
// THIS replica should receive new work), and the debug-only /failpointz
// endpoint over internal/failpoint. See DESIGN.md §"The dependability
// layer".

// DeadlineHeader is the request header carrying the client's per-request
// deadline budget in milliseconds. The server turns it into a context
// deadline that bounds pipeline waits; work not finished in time answers
// per-frame with Err == "deadline".
const DeadlineHeader = "X-Deadline-Ms"

// errOverloaded answers requests refused by admission control. The 429
// carries Retry-After: 1 so a well-behaved client backs off instead of
// hammering a saturated pool.
var errOverloaded = errors.New("server: overloaded, retry later")

// requestContext derives the request's work context from DeadlineHeader. No
// header means the request's own context (cancelled on client disconnect);
// a malformed or non-positive value is a client error.
func requestContext(r *http.Request) (context.Context, context.CancelFunc, error) {
	h := r.Header.Get(DeadlineHeader)
	if h == "" {
		return r.Context(), func() {}, nil
	}
	ms, err := strconv.Atoi(h)
	if err != nil || ms <= 0 {
		return nil, nil, fmt.Errorf("server: bad %s %q", DeadlineHeader, h)
	}
	ctx, cancel := context.WithTimeout(r.Context(), time.Duration(ms)*time.Millisecond)
	return ctx, cancel, nil
}

// admitFrames is the preamble every frame endpoint shares: it caps the
// body, decodes the frames, then admits them (admitWork). On a refusal it
// has answered the request and recycled every decoded frame, and ok is
// false; otherwise the caller owns the frames and calls done when the
// request ends.
func (s *Server) admitFrames(w http.ResponseWriter, r *http.Request, maxBatch int, single bool) (frames []*raster.Gray, ctx context.Context, done func(), ok bool) {
	r.Body = http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
	frames, err := decodeFrames(r, &s.framePool, maxBatch, single)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return nil, nil, nil, false
	}
	if ctx, done, ok = s.admitWork(w, r, len(frames)); !ok {
		releaseFrames(&s.framePool, frames)
		return nil, nil, nil, false
	}
	return frames, ctx, done, true
}

// admitWork derives a request's work context from DeadlineHeader and
// reserves n items of admission budget, answering 400 or 429 itself when it
// refuses. done cancels the context and returns the budget.
func (s *Server) admitWork(w http.ResponseWriter, r *http.Request, n int) (ctx context.Context, done func(), ok bool) {
	ctx, cancel, err := requestContext(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return nil, nil, false
	}
	if !s.admit(n) {
		cancel()
		writeOverloaded(w)
		return nil, nil, false
	}
	return ctx, func() { cancel(); s.unadmit(n) }, true
}

// admit reserves n frames of admission budget, or reports the server full.
// The add-then-check shape keeps the counter honest under races: two
// requests can only both reject, never both slip past the cap.
func (s *Server) admit(n int) bool {
	max := int64(s.opts.MaxInflightFrames)
	if s.inflight.Add(int64(n)) > max {
		s.inflight.Add(int64(-n))
		s.rejected.Add(1)
		return false
	}
	return true
}

// unadmit returns n frames of admission budget.
func (s *Server) unadmit(n int) { s.inflight.Add(int64(-n)) }

// writeOverloaded answers a request refused by admission control.
func writeOverloaded(w http.ResponseWriter) {
	w.Header().Set("Retry-After", "1")
	writeError(w, http.StatusTooManyRequests, errOverloaded)
}

// degradeWatermark is the pool-queue occupancy fraction past which
// /v1/recognize and /v1/batch answer on the request goroutine, marked
// degraded:true, instead of joining the backlog.
const degradeWatermark = 0.75

// overloaded reports whether the pool queue has crossed degradeWatermark —
// the signal that pool answers are about to queue behind a backlog, so
// answering on the request goroutine serves the users better.
func (s *Server) overloaded() bool {
	queued, capacity, started := s.sys.PoolQueue()
	if !started || capacity == 0 {
		return false
	}
	return float64(queued) >= degradeWatermark*float64(capacity)
}

// storeReadOnly reports whether the backing store has latched its sticky
// write-failure state (store.Store.ReadOnly). A read-only store still serves
// lookups, unchanged, but it signals storage-layer distress, so the replica
// drops out of readiness and traffic shifts to healthy ones.
func (s *Server) storeReadOnly() bool {
	if s.opts.Store == nil {
		return false
	}
	ro, _ := s.opts.Store.ReadOnly()
	return ro
}

// recognizeDegraded answers frames on the request goroutine, with the
// recognizer the pool workers run, so a stalled or backed-up pool adds no
// wait, and recycles them. The verdicts are the pool's; results carry
// Degraded: true, which means "answered outside the pool".
func (s *Server) recognizeDegraded(frames []*raster.Gray) []FrameResult {
	out := make([]FrameResult, len(frames))
	sc := recognizer.NewScratch()
	for i, f := range frames {
		res, err := s.sys.Rec.RecognizeWith(sc, f)
		s.framePool.Put(f)
		out[i] = resultToWire(res, err)
		out[i].Degraded = true
	}
	s.degraded.Add(uint64(len(frames)))
	return out
}

// handleLivez answers GET /livez: 200 for as long as the process can answer
// HTTP at all, including while draining — liveness is "don't restart me",
// not "route to me".
func (s *Server) handleLivez(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "live"})
}

// readyzResponse is the /readyz body: ready, or the reasons this replica
// should not receive new work.
type readyzResponse struct {
	Status  string   `json:"status"`
	Reasons []string `json:"reasons,omitempty"`
}

// handleReadyz answers GET /readyz: 503 with the reasons while this replica
// should not receive new traffic (draining, pool closed, read-only store,
// admission overload), 200 otherwise. Load balancers route on this; /livez
// decides process restarts.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	var reasons []string
	if s.draining.Load() {
		reasons = append(reasons, "draining")
	}
	if st, started := s.sys.PoolStats(); started && st.Closed {
		reasons = append(reasons, "pool-closed")
	}
	if s.storeReadOnly() {
		reasons = append(reasons, "store-read-only")
	}
	if s.overloaded() {
		reasons = append(reasons, "overloaded")
	}
	if len(reasons) > 0 {
		writeJSON(w, http.StatusServiceUnavailable, readyzResponse{Status: "unready", Reasons: reasons})
		return
	}
	writeJSON(w, http.StatusOK, readyzResponse{Status: "ready"})
}

// failpointzRequest is the POST /failpointz body: a spec arms the named
// failpoint, "off" (or empty) disarms it.
type failpointzRequest struct {
	Name string `json:"name"`
	Spec string `json:"spec"`
}

// handleFailpointz answers /failpointz, mounted only under
// Options.DebugFailpoints: GET lists the armed failpoints with hit/fire
// counters, POST arms or disarms one. It exists for chaos drills against a
// running replica; production configs leave it unmounted.
func (s *Server) handleFailpointz(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodGet {
		writeJSON(w, http.StatusOK, failpoint.List())
		return
	}
	var req failpointzRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("server: bad failpoint body: %w", err))
		return
	}
	if req.Name == "" {
		writeError(w, http.StatusBadRequest, errors.New("server: failpoint name required"))
		return
	}
	if req.Spec == "" || req.Spec == "off" {
		failpoint.Disable(req.Name)
	} else if err := failpoint.Enable(req.Name, req.Spec); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, failpoint.List())
}
