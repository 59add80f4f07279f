package server

import (
	"errors"
	"net/http"

	"hdc/internal/gesture"
)

// gesture.go serves the dynamic marshalling signals over the same shared
// pool. Two shapes:
//
//   - POST /v1/gesture — one-shot: the request carries one complete
//     observation window (a batch of frames in any of the three wire
//     encodings) and the response is its verdict. It is served by the
//     gesture graph, the same handler as POST /v1/graph/gesture (see
//     handleGraphGesture), so it takes admission control and X-Deadline-Ms
//     like every other frame endpoint.
//   - /v1/gesture/streams — live mode: the session owns a bounded
//     drop-oldest ring (pipeline.Source) in front of the pool, so an
//     operator can push frames at capture cadence no matter how loaded the
//     service is. Each push returns immediately with the session's ingest
//     counters and whatever sliding-window verdicts completed since the
//     last push; overload surfaces as a growing dropped count, never a
//     stalled request. DELETE flushes and returns the final verdicts.
//
// Like recognition sessions, live gesture sessions are reaped after
// StreamIdleTimeout; their queued frames recycle back into the server's
// frame pool through the session's OnFrame hook.

// GestureResult is the wire verdict of one gesture window.
type GestureResult struct {
	OK      bool    `json:"ok"`
	Gesture string  `json:"gesture,omitempty"`
	Dist    float64 `json:"dist"`
	Shift   int     `json:"shift"`
	// End is the session-lifetime sequence number of the window's newest
	// frame (live sessions only).
	End uint64 `json:"end,omitempty"`
	// Err is "" for an accepted gesture, "no_gesture" for a window that
	// matched nothing, or the error text otherwise.
	Err string `json:"error,omitempty"`
}

// ErrValueNoGesture is the reserved GestureResult.Err value for a clean
// rejection.
const ErrValueNoGesture = "no_gesture"

// gestureMatchToWire converts one verdict.
func gestureMatchToWire(m gesture.Match, err error) GestureResult {
	out := GestureResult{OK: err == nil, Dist: finite(m.Dist), Shift: m.Shift}
	if m.Gesture.Valid() {
		out.Gesture = m.Gesture.String()
	}
	out.Err = errValue(err)
	return out
}

// GestureFeed answers live-session pushes (and the final DELETE):
// the session's ingest accounting plus the verdicts completed so far.
type GestureFeed struct {
	ID       string `json:"id"`
	Accepted uint64 `json:"accepted"` // frames taken in over the session's life
	Dropped  uint64 `json:"dropped"`  // frames shed by the ring (overload)
	Depth    int    `json:"depth"`    // frames queued right now
	Frames   uint64 `json:"frames"`   // frames whose features reached the window
	Windows  uint64 `json:"windows"`  // windows classified
	// MissedMatches counts verdicts the session shed because the poller
	// lagged behind the verdict buffer — the signal to poll more often.
	MissedMatches uint64          `json:"missed_matches"`
	Matches       []GestureResult `json:"matches"` // verdicts since the last push
}

// feedResponse snapshots a session and drains its ready verdicts. max
// bounds the drain so one response stays bounded; <0 drains everything,
// returning only when the channel is empty or closed (after Live.Close the
// channel is closed, so <0 collects every remaining verdict).
func feedResponse(sess *session, max int) GestureFeed {
	st := sess.live.Stats()
	out := GestureFeed{
		ID:            sess.id,
		Accepted:      st.Accepted,
		Dropped:       st.Dropped,
		Depth:         st.Depth,
		Frames:        st.Frames,
		Windows:       st.Windows,
		MissedMatches: st.MissedMatches,
	}
	for max < 0 || len(out.Matches) < max {
		select {
		case m, ok := <-sess.live.Matches():
			if !ok {
				return out
			}
			out.Matches = append(out.Matches, toWireWindow(m))
		default:
			return out
		}
	}
	return out
}

func toWireWindow(m gesture.WindowMatch) GestureResult {
	r := gestureMatchToWire(m.Match, m.Err)
	r.End = m.End
	return r
}

// handleGestureStreamCreate answers POST /v1/gesture/streams: opens a
// live-feed session with its ingest ring on the shared pool.
func (s *Server) handleGestureStreamCreate(w http.ResponseWriter, r *http.Request) {
	if !s.acceptingWork() {
		writeError(w, http.StatusServiceUnavailable, errDraining)
		return
	}
	l, err := s.opts.Gesture.NewLive(s.sys, gesture.LiveConfig{
		Buffer: s.opts.GestureBuffer,
		// The service polls matches over HTTP, so give slow pollers slack
		// before verdicts are shed.
		MatchBuffer: 64,
		OnFrame:     s.framePool.Put,
	})
	if err != nil {
		// The real cause matters here: a drain is one reason NewLive can
		// fail, a bad pipeline config on first pool start is another.
		writeError(w, http.StatusServiceUnavailable, err)
		return
	}
	sess := s.sessions.addLive(l, l.Buffer())
	writeJSON(w, http.StatusCreated, streamInfo{ID: sess.id, Window: sess.window})
}

// getLiveSession looks up a live gesture session.
func (s *Server) getLiveSession(w http.ResponseWriter, r *http.Request) (*session, bool) {
	sess, ok := s.sessions.get(r.PathValue("id"))
	if !ok || sess.live == nil {
		writeError(w, http.StatusNotFound, errors.New("server: unknown gesture stream"))
		return nil, false
	}
	return sess, true
}

// handleGestureStreamInfo answers GET /v1/gesture/streams/{id} with the
// session's counters (no verdicts are consumed).
func (s *Server) handleGestureStreamInfo(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.getLiveSession(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, feedResponse(sess, 0))
}

// handleGestureFeed answers POST /v1/gesture/streams/{id}/frames: the
// request's frames are offered to the session's ring — never blocking on
// the pool — and the response reports the ingest counters plus the verdicts
// that completed since the last push.
func (s *Server) handleGestureFeed(w http.ResponseWriter, r *http.Request) (int, bool) {
	sess, ok := s.getLiveSession(w, r)
	if !ok {
		return 0, true
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
	frames, err := decodeFrames(r, &s.framePool, s.opts.MaxBatch, false)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return 0, true
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.closed {
		releaseFrames(&s.framePool, frames)
		writeError(w, http.StatusGone, errors.New("server: stream closed"))
		return 0, true
	}
	sess.touch(s.opts.now())
	defer func() { sess.touch(s.opts.now()) }()
	for i, f := range frames {
		if err := sess.live.Offer(f); err != nil {
			// The pool shut down underneath the session: its feed is dead,
			// not merely loaded. End the session and say so — a 200 with
			// stale counters would let a camera push frames into the void
			// forever (the recognition endpoints report draining here too).
			releaseFrames(&s.framePool, frames[i:])
			sess.closed = true
			s.sessions.remove(sess.id)
			sess.live.Abandon()
			writeError(w, http.StatusGone, errors.New("server: gesture stream closed: "+err.Error()))
			return len(frames), true
		}
	}
	sess.submitted.Add(uint64(len(frames)))
	writeJSON(w, http.StatusOK, feedResponse(sess, s.opts.MaxBatch))
	return len(frames), false
}

// handleGestureStreamDelete answers DELETE /v1/gesture/streams/{id}:
// graceful end — queued frames flush through the pool and the final
// verdicts come back in the response body.
func (s *Server) handleGestureStreamDelete(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.getLiveSession(w, r)
	if !ok {
		return
	}
	sess.mu.Lock() // waits for an in-flight feed request to finish
	defer sess.mu.Unlock()
	if sess.closed {
		writeError(w, http.StatusGone, errors.New("server: stream closed"))
		return
	}
	sess.closed = true
	s.sessions.remove(sess.id)
	sess.live.Close()
	writeJSON(w, http.StatusOK, feedResponse(sess, -1))
}
