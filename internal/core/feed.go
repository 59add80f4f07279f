package core

import (
	"errors"
	"sync"

	"hdc/internal/pipeline"
	"hdc/internal/raster"
	"hdc/internal/recognizer"
)

// feed.go routes a shared system's conversation perception through the fleet
// pool. Each drone's camera frames pass through a private bounded ring
// (pipeline.Source) into an owner-attributed stream, so recognition capacity
// is drawn from the fleet-level pool. perceive waits for the pool, the
// deterministic choice for simulation: the per-stream window bounds how much
// of the pool one drone can hold, so one drone cannot starve the rest of the
// fleet. Private (non-shared) systems keep the direct synchronous
// render→recognise path; their pool has no competing tenants.
//
// Frame ownership in pooled mode: perceive takes ownership of the frame at
// Offer and recycles every frame it ever offered back into the system's
// framePool exactly once — on delivery or on ring eviction. Callers
// therefore render each pooled perception into a fresh framePool buffer and
// never touch it again.

// errFrameShed reports that a perception frame was shed (ring eviction or
// feed teardown); conversations treat it as "nothing perceived", never as a
// hard failure.
var errFrameShed = errors.New("core: perception frame shed under pool pressure")

// perceptionFeed is one system's camera lane into its (typically shared)
// worker pool: an owner-attributed stream fronted by a 1-slot drop-oldest
// ring, plus the bookkeeping that pairs the single in-flight perception with
// its result or shed notice. Conversations are documented
// non-concurrent per system, so at most one perception is waiting at a time.
type perceptionFeed struct {
	sys *System
	st  *pipeline.Stream
	src *pipeline.Source

	mu      sync.Mutex
	cur     *raster.Gray  // frame the current perception is waiting on
	curShed chan struct{} // cap 1: cur was evicted/discarded by the ring
}

// ensureFeed lazily builds the system's perception feed on first pooled
// perception.
func (s *System) ensureFeed() (*perceptionFeed, error) {
	s.feedOnce.Do(func() {
		o, err := s.ensurePipeline()
		if err != nil {
			s.feedErr = err
			return
		}
		st, err := o.NewStream()
		if err != nil {
			s.feedErr = err
			return
		}
		feed := &perceptionFeed{sys: s, st: st, curShed: make(chan struct{}, 1)}
		// Results discarded on the stream's abandon path (closeFeed) recycle
		// through the same resolver, so no pooled buffer is ever stranded.
		st.SetDropHook(feed.dropped)
		// Capacity 1 gives freshest-frame semantics: when the forwarder is
		// parked in Submit against a saturated pool, the next Offer evicts
		// whatever the ring still holds.
		src, err := pipeline.NewSource(st, pipeline.SourceConfig{
			Capacity: 1,
			OnDrop:   feed.dropped,
		})
		if err != nil {
			st.Abandon()
			s.feedErr = err
			return
		}
		feed.src = src
		s.feed = feed
	})
	if s.feedErr != nil {
		return nil, s.feedErr
	}
	return s.feed, nil
}

// dropped handles a frame the ring gave up on: if it is the frame the
// current perception waits for, signal the shed; either way the buffer goes
// back to the frame pool. Every offered frame resolves exactly once (result
// or drop), so a recycled pointer can never be confused with a live one.
func (f *perceptionFeed) dropped(frame *raster.Gray) {
	f.mu.Lock()
	if frame == f.cur {
		f.cur = nil
		select {
		case f.curShed <- struct{}{}:
		default:
		}
	}
	f.mu.Unlock()
	f.sys.framePool.Put(frame)
}

// finish resolves the current perception's delivered result frame and
// recycles the buffer.
func (f *perceptionFeed) finish(frame *raster.Gray) {
	f.mu.Lock()
	if frame == f.cur {
		f.cur = nil
	}
	f.mu.Unlock()
	if frame != nil {
		f.sys.framePool.Put(frame)
	}
}

// perceive pushes one rendered frame through the ring and waits for the
// pool's verdict or a shed notice. Ownership of frame passes to the feed
// (see the file comment); on every return path the buffer is or will be
// recycled.
func (f *perceptionFeed) perceive(frame *raster.Gray) (recognizer.Result, error) {
	f.mu.Lock()
	f.cur = frame
	f.mu.Unlock()

	if err := f.src.Offer(frame); err != nil {
		f.mu.Lock()
		f.cur = nil
		f.mu.Unlock()
		f.sys.framePool.Put(frame)
		return recognizer.Result{}, err
	}

	select {
	case r, ok := <-f.st.Results():
		if !ok {
			return recognizer.Result{}, pipeline.ErrClosed
		}
		f.finish(r.Frame)
		return r.Res, r.Err
	case <-f.curShed:
		return recognizer.Result{}, errFrameShed
	}
}

// perceivePooled reports whether conversation perception goes through the
// worker pool (fleet-shared systems) rather than the synchronous in-process
// recogniser.
func (s *System) perceivePooled() bool { return s.sharedPipe != nil }

// perceive classifies one rendered conversation frame. A private system runs
// the recogniser synchronously on the caller's scratch, and the caller keeps
// owning the frame. A shared system routes the frame through its ring and
// the fleet pool — the frame must come from the system's framePool and
// ownership passes to the feed.
func (s *System) perceive(sc *recognizer.Scratch, frame *raster.Gray) (recognizer.Result, error) {
	if !s.perceivePooled() {
		return s.Rec.RecognizeWith(sc, frame)
	}
	feed, err := s.ensureFeed()
	if err != nil {
		s.framePool.Put(frame)
		return recognizer.Result{}, err
	}
	return feed.perceive(frame)
}

// closeFeed tears the perception feed down without blocking on a wedged
// pool: the ring discards anything still queued (recycling through the drop
// hook) and the stream drops undelivered results. Safe when no feed was
// ever built.
func (s *System) closeFeed() {
	s.feedOnce.Do(func() { s.feedErr = pipeline.ErrClosed })
	if s.feed == nil {
		return
	}
	s.feed.src.Abandon()
	s.feed.st.Abandon()
}
