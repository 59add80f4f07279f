package pipeline

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"hdc/internal/failpoint"
	"hdc/internal/raster"
	"hdc/internal/trace"
)

// source.go is the live-feed ingest layer: a bounded ring buffer with a
// drop-oldest policy sitting between a frame producer (a camera ISR, an HTTP
// ingest handler — anything that must never stall) and a Stream's blocking
// Submit. Submit applies back-pressure by design; a capture device cannot
// absorb back-pressure, it can only drop frames. The Source converts the one
// into the other: Offer never blocks, a saturated pool shows up as evicted
// frames (oldest first, so the retained window stays the freshest), and the
// eviction totals surface through Source.Stats, the pipeline-wide
// Stats.IngestAccepted/IngestDropped aggregates and the service's /statsz.

// ErrSourceClosed is returned by Offer once the source is closed — or once
// its stream went away underneath it (pipeline shutdown).
var ErrSourceClosed = errors.New("pipeline: source closed")

// SourceConfig tunes one ingest ring.
type SourceConfig struct {
	// Capacity is the ring's slot count (default: the pipeline's
	// StreamWindow). Sizing it near the stream window keeps at most one
	// window of stale frames queued ahead of fresh ones.
	Capacity int
	// OnDrop receives every frame the source gives up on: evicted by a
	// newer frame, discarded by Abandon, or failed to submit because the
	// pipeline closed. Producers drawing frames from a raster.Pool recycle
	// them here. May be nil; called from Offer and the forwarder goroutine.
	OnDrop func(*raster.Gray)
}

// Source is the bounded drop-oldest ring in front of a Stream. Offer is safe
// for concurrent use; Close/Abandon may be called once each, from anywhere.
type Source struct {
	st  *Stream
	cfg SourceConfig

	mu      sync.Mutex
	cond    *sync.Cond
	ring    []*raster.Gray
	traces  []trace.Handle // parallel to ring: each queued frame's trace
	head    int            // index of the oldest queued frame
	count   int            // queued frames
	closed  bool
	discard bool // drop queued frames instead of submitting them

	accepted atomic.Uint64
	dropped  atomic.Uint64

	done chan struct{} // closed when the forwarder exits
}

// NewSource builds an ingest ring feeding st and starts its forwarder. The
// caller keeps ownership of st: closing the source never closes the stream
// (a stream can outlive a camera feed and vice versa).
func NewSource(st *Stream, cfg SourceConfig) (*Source, error) {
	if st == nil {
		return nil, errors.New("pipeline: nil stream")
	}
	if cfg.Capacity <= 0 {
		cfg.Capacity = st.p.cfg.StreamWindow
	}
	s := &Source{
		st:     st,
		cfg:    cfg,
		ring:   make([]*raster.Gray, cfg.Capacity),
		traces: make([]trace.Handle, cfg.Capacity),
		done:   make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	go s.forward()
	return s, nil
}

// Offer hands one frame to the ring and returns immediately. A full ring
// evicts its oldest frame (through OnDrop) to make room, so the producer
// holds its capture cadence no matter how far behind the pool is. The frame
// must not be mutated after Offer accepts it.
func (s *Source) Offer(f *raster.Gray) error {
	if f == nil {
		return ErrNilFrame
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrSourceClosed
	}
	var evicted *raster.Gray
	var evictedTr trace.Handle
	if s.count == len(s.ring) {
		evicted = s.ring[s.head]
		evictedTr = s.traces[s.head]
		s.ring[s.head] = nil
		s.traces[s.head] = trace.Handle{}
		s.head = (s.head + 1) % len(s.ring)
		s.count--
	}
	h := s.st.p.tracer.Begin(s.st.traceOwner)
	h.Stamp(trace.StageOffer)
	tail := (s.head + s.count) % len(s.ring)
	s.ring[tail] = f
	s.traces[tail] = h
	s.count++
	// Count the accept before releasing the lock: a concurrent Offer may
	// evict this frame (and count the drop) the moment we unlock, and the
	// dropped ≤ accepted invariant must hold at every observable instant.
	s.accepted.Add(1)
	s.st.p.ingestAccepted.Add(1)
	if o := s.st.owner; o != nil {
		o.ingestAccepted.Add(1)
	}
	s.cond.Broadcast()
	s.mu.Unlock()

	if evicted != nil {
		s.drop(evicted, evictedTr)
	}
	return nil
}

// drop counts one dropped frame — against the source, the pipeline and the
// stream's owner, so a fleet's sheds are attributed to the drone that shed
// them — recycles it, and ends its trace with the shed terminal.
func (s *Source) drop(f *raster.Gray, h trace.Handle) {
	h.Finish(trace.TerminalShed)
	s.dropped.Add(1)
	s.st.p.ingestDropped.Add(1)
	if o := s.st.owner; o != nil {
		o.ingestDropped.Add(1)
	}
	if s.cfg.OnDrop != nil {
		s.cfg.OnDrop(f)
	}
}

// forward is the ring's single consumer: it pops the oldest frame and blocks
// in Stream.Submit — absorbing the pool's back-pressure — while Offer keeps
// the ring fresh by evicting around it.
func (s *Source) forward() {
	defer close(s.done)
	for {
		s.mu.Lock()
		for s.count == 0 && !s.closed {
			s.cond.Wait()
		}
		if s.count == 0 {
			s.mu.Unlock()
			return
		}
		f := s.ring[s.head]
		h := s.traces[s.head]
		s.ring[s.head] = nil
		s.traces[s.head] = trace.Handle{}
		s.head = (s.head + 1) % len(s.ring)
		s.count--
		discard := s.discard
		s.mu.Unlock()

		if discard {
			s.drop(f, h)
			continue
		}
		// Ring-forward failpoint: a delay stalls the forwarder so the ring
		// backs up and evicts (shedding under a wedged consumer); an error
		// sheds this frame like any other drop.
		if err := failpoint.Inject(failpoint.PipelineRingForward); err != nil {
			s.drop(f, h)
			continue
		}
		if claimed, err := s.st.submit(context.Background(), f, h); err != nil {
			// The stream or pipeline closed underneath us: everything still
			// queued can only be dropped, and future Offers should fail
			// fast.
			s.mu.Lock()
			s.closed = true
			s.discard = true
			s.mu.Unlock()
			if claimed {
				// Submit claimed a sequence number before the pool refused
				// the frame, so it comes back as an error result and is
				// recycled on the delivery (or drop-hook) path — dropping
				// it here too would recycle one buffer twice. Its trace
				// travels with the error result and finishes there.
				continue
			}
			s.drop(f, h)
		}
	}
}

// Close stops intake and flushes the frames still queued into the stream,
// blocking until the ring drains and the forwarder exits. The underlying
// stream stays open. If the forwarder is parked in Submit, Close waits for
// that back-pressure to release — use Abandon to walk away instead.
func (s *Source) Close() {
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	<-s.done
}

// Abandon stops intake and discards the queued frames through OnDrop
// instead of submitting them. Unlike Close it does not wait for the
// forwarder: a forwarder wedged against a stalled pool (blocked in Submit)
// finishes its discard asynchronously once the pool lets go, so an idle
// reaper calling Abandon can never be held hostage by pool back-pressure.
// Close or Abandon the underlying stream first to release a blocked Submit
// promptly.
func (s *Source) Abandon() {
	s.mu.Lock()
	s.closed = true
	s.discard = true
	s.cond.Broadcast()
	s.mu.Unlock()
}

// SourceStats is a point-in-time ingest snapshot.
type SourceStats struct {
	Accepted uint64 // frames Offer took in
	Dropped  uint64 // frames evicted, discarded or failed to submit
	Depth    int    // frames queued right now
}

// Stats reports the source's counters. Safe for concurrent use.
func (s *Source) Stats() SourceStats {
	s.mu.Lock()
	depth := s.count
	s.mu.Unlock()
	return SourceStats{
		Accepted: s.accepted.Load(),
		Dropped:  s.dropped.Load(),
		Depth:    depth,
	}
}
