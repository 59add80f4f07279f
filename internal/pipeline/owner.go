package pipeline

import (
	"context"
	"fmt"
	"sync/atomic"

	"hdc/internal/raster"
	"hdc/internal/recognizer"
)

// owner.go makes one Pipeline a shareable, reference-counted resource. A
// fleet of drones (or any set of core.Systems) attaches to a single pool with
// Attach; each attachment is an Owner whose streams and ingest rings are
// accounted separately in Stats, and the pool only shuts down when the last
// attached owner closes. This is what turns recognition capacity from a
// per-drone possession into fleet-level infrastructure: capacity flows to
// whichever owner has frames queued, while per-owner windows and Source rings
// keep one stalled owner from starving the rest.
//
// Lifecycle contract: the first Attach arms the reference count. From then
// on, the pool is collectively owned — when the last owner detaches (Owner.
// Close), the pool drains exactly as Pipeline.Close would, and any later
// Attach fails with ErrClosed. Attach and the last detach are serialised
// under the pipeline mutex, so attach-after-last-detach can never observe a
// half-closed pool: it either wins (pool stays up) or gets ErrClosed.
// Pipeline.Close remains a force-close that overrides the count (the process
// shutdown path); owners detaching afterwards are no-ops.

// Owner is one attached share of a reference-counted Pipeline, created by
// Attach. Streams opened through an Owner are attributed to it in Stats
// (stream, frame and ingest-shed counts), and closing the Owner detaches it —
// draining the pool only if it was the last attachment. All methods are safe
// for concurrent use; Close is idempotent.
type Owner struct {
	p     *Pipeline
	label string
	seq   int // attach order, breaks label ties when sorting Stats.Owners

	detached bool // guarded by p.mu

	streams        atomic.Int64  // registered, not yet fully drained
	streamsTotal   atomic.Uint64 // ever opened
	frames         atomic.Uint64 // results completed (including error results)
	ingestAccepted atomic.Uint64 // Source.Offer accepts on this owner's streams
	ingestDropped  atomic.Uint64 // Source sheds on this owner's streams
}

// Attach adds one owner to the pipeline's reference count and returns its
// handle. The label names the owner in Stats (a drone ID, a server name); an
// empty label is assigned "owner-N". Attach fails with ErrClosed once the
// pipeline is closed — including the instant the last previously-attached
// owner detached, which closes the pool atomically with its detach.
func (p *Pipeline) Attach(label string) (*Owner, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, ErrClosed
	}
	p.ownerSeq++
	if label == "" {
		label = fmt.Sprintf("owner-%d", p.ownerSeq)
	}
	o := &Owner{p: p, label: label, seq: p.ownerSeq}
	p.owners[o] = struct{}{}
	p.everAttached = true
	return o, nil
}

// Label returns the name this owner carries in Stats.
func (o *Owner) Label() string { return o.label }

// NewStream opens an ordered recognition stream attributed to this owner; it
// behaves exactly like Pipeline.NewStream otherwise. It fails with ErrClosed
// once the owner has detached or the pipeline has closed.
func (o *Owner) NewStream() (*Stream, error) { return o.p.registerOwned(nil, o) }

// NewProcStream opens an ordered custom-stage stream (see Pipeline.
// NewProcStream) attributed to this owner.
func (o *Owner) NewProcStream(proc Proc) (*Stream, error) {
	if proc == nil {
		return nil, errNilProc
	}
	return o.p.registerOwned(proc, o)
}

// RecognizeBatchContext pushes a batch of frames through the pool on a
// private stream attributed to this owner and returns the results in input
// order, with one error slot per frame (nil for an accepted sign,
// recognizer.ErrNoSign or a vision error otherwise). When ctx expires
// mid-batch the call returns promptly with the results completed so far,
// the remaining slots' errors set to ctx.Err(), and the stream abandoned so
// in-flight frames drain in the background.
//
// Because frames may still be under a worker when the deadline fires, the
// caller must hand ownership of every frame to the call: recycle (which may
// be nil) is invoked exactly once per frame — synchronously for delivered
// results and never-submitted frames, from the drain goroutine for frames
// dropped by the abandon — and the caller must not touch the frames after
// the call. On a non-nil top-level error no frame was consumed and the
// caller keeps them all.
func (o *Owner) RecognizeBatchContext(ctx context.Context, frames []*raster.Gray, recycle func(*raster.Gray)) ([]recognizer.Result, []error, error) {
	return recognizeBatchContext(ctx, o.NewStream, frames, recycle)
}

// Close detaches the owner from the pipeline. Streams it opened stay valid —
// they drain on their own schedule — but new streams through this owner fail
// with ErrClosed. If this was the last attached owner, Close drains the pool
// exactly like Pipeline.Close (blocking until the workers exit); otherwise
// the pool keeps serving the remaining owners. Close is idempotent and safe
// to call concurrently with other owners' Closes and Attaches.
func (o *Owner) Close() {
	p := o.p
	p.mu.Lock()
	if o.detached {
		p.mu.Unlock()
		return
	}
	o.detached = true
	delete(p.owners, o)
	var open []*Stream
	if p.everAttached && len(p.owners) == 0 {
		// Last owner out: close the pool under the same critical section, so
		// a racing Attach observes either the owned pool or ErrClosed, never
		// a pool about to vanish underneath it.
		open = p.beginCloseLocked()
	}
	p.mu.Unlock()
	if open == nil {
		return
	}
	for _, st := range open {
		st.Close()
	}
	p.wg.Wait()
}

// Stats snapshots this owner's share of the pool's traffic.
func (o *Owner) Stats() OwnerStats {
	return OwnerStats{
		Label:          o.label,
		Streams:        int(o.streams.Load()),
		StreamsTotal:   o.streamsTotal.Load(),
		Frames:         o.frames.Load(),
		IngestAccepted: o.ingestAccepted.Load(),
		IngestDropped:  o.ingestDropped.Load(),
	}
}

// OwnerStats is one attached owner's slice of the pool accounting: how many
// streams it holds, how much work the pool has completed for it, and how many
// frames its ingest rings shed. The sum of Frames over owners (plus any
// streams opened directly on the Pipeline) equals the pool's completed work;
// sheds are attributed to the owner whose Source evicted them, which is what
// lets a fleet operator see that one wedged drone is shedding at its own ring
// while the others run clean.
type OwnerStats struct {
	Label          string // attachment name passed to Attach
	Streams        int    // live streams (registered, not yet drained)
	StreamsTotal   uint64 // streams ever opened by this owner
	Frames         uint64 // results completed for this owner (errors included)
	IngestAccepted uint64 // frames its Source rings accepted
	IngestDropped  uint64 // frames its Source rings shed
}
