package core

import (
	"context"

	"hdc/internal/pipeline"
	"hdc/internal/raster"
	"hdc/internal/recognizer"
	"hdc/internal/trace"
)

// pipeline.go exposes the streaming recognition service on the System
// façade: many concurrent frame sources (multi-camera ingest, fleet drones,
// remote clients) share one worker pool over the system's recogniser. A
// system either owns its pool (the default: lazily started on first use) or
// attaches to a fleet-shared one (WithSharedPipeline); in both cases every
// stream the system opens is attributed to the system's pipeline.Owner, so
// PoolStats can break pool traffic down per attached system.

// ensurePipeline lazily resolves the system's pool and attachment: for a
// private system it starts the pool on first use; for a shared system it
// attaches to the externally built pool (NewSystem already did this
// eagerly). The recogniser's references were built in NewSystem, so the pool
// is safe to start at any point afterwards. The pointers are published
// atomically so observers (PoolStats, Close) can read them without consuming
// the start-once.
func (s *System) ensurePipeline() (*pipeline.Owner, error) {
	s.pipeOnce.Do(func() {
		p := s.sharedPipe
		if p == nil {
			var err error
			p, err = pipeline.New(s.Rec, s.pipeCfg)
			if err != nil {
				s.pipeErr = err
				return
			}
		}
		o, err := p.Attach(s.poolLabel)
		if err != nil {
			// Shared pool already closed underneath us; a private pool this
			// goroutine just built cannot refuse its first attach.
			s.pipeErr = err
			return
		}
		s.pipe.Store(p)
		s.owner.Store(o)
	})
	if s.pipeErr != nil {
		return nil, s.pipeErr
	}
	return s.owner.Load(), nil
}

// NewStream opens an ordered recognition stream on the system's worker pool:
// frames submitted to it come back as recognizer.Results in submission order
// on the stream's Results channel, while the pool recognises frames from all
// streams in parallel. The first call starts a private system's pool (sized
// with WithPipelineConfig, default NumCPU workers); on a shared system it
// draws on the fleet pool, attributed to this system.
func (s *System) NewStream() (*pipeline.Stream, error) {
	o, err := s.ensurePipeline()
	if err != nil {
		return nil, err
	}
	return o.NewStream()
}

// NewProcStream opens an ordered stream whose frames run a custom per-frame
// stage (pipeline.Proc) on the shared pool's workers instead of sign
// recognition — the hook the gesture recogniser uses to share the system's
// recognition capacity. It satisfies gesture.StreamPool.
func (s *System) NewProcStream(proc pipeline.Proc) (*pipeline.Stream, error) {
	o, err := s.ensurePipeline()
	if err != nil {
		return nil, err
	}
	return o.NewProcStream(proc)
}

// RecognizeBatchContext recognises a batch of frames on the system's worker
// pool under ctx and returns the results in input order, one error slot per
// frame — see pipeline.Owner.RecognizeBatchContext for the frame ownership
// contract (on a nil top-level error the call owns every frame; recycle
// fires exactly once per frame).
func (s *System) RecognizeBatchContext(ctx context.Context, frames []*raster.Gray, recycle func(*raster.Gray)) ([]recognizer.Result, []error, error) {
	o, err := s.ensurePipeline()
	if err != nil {
		return nil, nil, err
	}
	return o.RecognizeBatchContext(ctx, frames, recycle)
}

// PoolQueue reports the worker pool's shared-queue occupancy without
// starting it — the cheap admission-control signal (PoolStats allocates an
// owner snapshot; this is two channel reads).
func (s *System) PoolQueue() (queued, capacity int, started bool) {
	if p := s.pipe.Load(); p != nil {
		queued, capacity = p.QueueDepth()
		return queued, capacity, true
	}
	return 0, 0, false
}

// PoolStats reports the worker pool's occupancy without starting it: started
// is false (and the snapshot zero) when no streaming call has run yet on a
// private system. On a shared system the pool was attached in NewSystem, so
// started is true from construction and the snapshot covers the whole
// fleet's traffic — Stats.Owners carries the per-system breakdown. It is the
// load signal the network service layer serves on /statsz.
func (s *System) PoolStats() (stats pipeline.Stats, started bool) {
	if p := s.pipe.Load(); p != nil {
		return p.Stats(), true
	}
	return pipeline.Stats{}, false
}

// Owner returns the system's attachment handle on its pool, or nil if no
// streaming call has started one yet. Fleet experiments read per-drone
// counters (frames recognised, ingest sheds) from it.
func (s *System) Owner() *pipeline.Owner { return s.owner.Load() }

// Pool resolves and returns the system's worker pool, starting a private
// system's pool on first use exactly like NewStream. Graph builders
// (internal/graph) attach their own per-node owners to it, so graph stages
// and the system's classic streams share workers and show up side by side
// in PoolStats.Owners.
func (s *System) Pool() (*pipeline.Pipeline, error) {
	if _, err := s.ensurePipeline(); err != nil {
		return nil, err
	}
	return s.pipe.Load(), nil
}

// Tracer returns the worker pool's per-frame flight recorder, or nil if no
// streaming call has started the pool yet. On a shared pool the tracer is
// fleet-wide — frames carry their owner's label — which is exactly what
// /tracez wants to serve.
func (s *System) Tracer() *trace.Tracer {
	if p := s.pipe.Load(); p != nil {
		return p.Tracer()
	}
	return nil
}

// Close detaches the system from its worker pool, if one was resolved. On a
// private system that drains the pool (this system is its only owner); on a
// shared system the pool keeps serving the other attached systems and only
// the last Close drains it. Streams still open deliver their in-flight
// results and then close. Close is idempotent; a private System that never
// streamed needs no Close, and streaming calls after Close fail with
// pipeline.ErrClosed.
func (s *System) Close() {
	// Pool never resolved: consume the once so a later NewStream reports
	// closed instead of starting a pool on a closed system.
	s.pipeOnce.Do(func() { s.pipeErr = pipeline.ErrClosed })
	s.closeFeed()
	if o := s.owner.Load(); o != nil {
		o.Close()
	}
}
