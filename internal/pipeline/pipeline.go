// Package pipeline is the streaming frame-recognition service layered over
// internal/recognizer: frames arrive from any number of concurrent sources
// (one Stream per source — a camera, a drone, a client connection), fan out
// over a fixed pool of recognition workers, and come back to each source as
// an ordered sequence of recognizer.Results.
//
// The design follows the executor pattern of dataflow robotic middlewares
// (DORA, the ROS 2 executor model): explicit stages with pooled buffers and
// a parallel executor between them. Each worker owns a recognizer.Scratch,
// so the steady state performs no per-frame vision allocations; ordering is
// restored per stream by sequence number, so parallelism never reorders one
// source's results; and back-pressure is end-to-end — a stream bounds its
// in-flight frames and a full worker queue blocks Submit, never a worker.
package pipeline

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"hdc/internal/failpoint"
	"hdc/internal/raster"
	"hdc/internal/recognizer"
	"hdc/internal/trace"
)

// Config sizes the worker pool.
type Config struct {
	// Workers is the number of recognition goroutines (default
	// runtime.NumCPU()).
	Workers int
	// QueueDepth is the capacity of the shared frame queue feeding the
	// workers (default 2×Workers). A full queue blocks Submit.
	QueueDepth int
	// StreamWindow bounds each stream's in-flight frames — submitted but not
	// yet delivered to its Results channel (default 2×Workers). The window
	// is what keeps one unconsumed stream from buffering unboundedly while
	// letting the pool stay busy.
	StreamWindow int
	// TraceBuffer is the per-worker capacity of the frame-trace ring buffers
	// (default trace.DefaultBuffer, rounded up to a power of two). Tracing is
	// always compiled in and armed by default; use Tracer().Disarm to reduce
	// it to one atomic load per frame.
	TraceBuffer int
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.NumCPU()
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 2 * c.Workers
	}
	if c.StreamWindow <= 0 {
		c.StreamWindow = 2 * c.Workers
	}
	return c
}

// Errors returned by the pipeline.
var (
	ErrClosed       = errors.New("pipeline: closed")
	ErrStreamClosed = errors.New("pipeline: stream closed")
	ErrNilFrame     = errors.New("pipeline: nil frame")

	errNilProc = errors.New("pipeline: nil proc")
)

// job is one frame travelling through the pool. The trace handle rides with
// the frame so every goroutine that touches it stamps the same record.
type job struct {
	st    *Stream
	seq   uint64
	frame *raster.Gray
	tr    trace.Handle
}

// Pipeline is the worker pool. Construct with New, create one Stream per
// frame source, and Close when done — or share it across several systems by
// handing each an Attach'd Owner, in which case the last Owner.Close drains
// the pool instead (see owner.go for the reference-counting contract). All
// methods are safe for concurrent use.
type Pipeline struct {
	cfg    Config
	rec    *recognizer.Recognizer
	in     chan job
	wg     sync.WaitGroup
	tracer *trace.Tracer

	// Live-feed ingest totals, aggregated across every Source ever attached
	// to this pipeline's streams (see Source); exported via Stats.
	ingestAccepted atomic.Uint64
	ingestDropped  atomic.Uint64

	mu      sync.RWMutex // guards closed + streams + owners; RLock spans queue sends
	closed  bool
	streams map[*Stream]struct{}

	// Reference-counting state (owner.go). Once everAttached is set, the
	// owners map is the pool's reference count: emptying it closes the pool.
	owners       map[*Owner]struct{}
	everAttached bool
	ownerSeq     int // labels anonymous owners
}

// New builds a pipeline over rec, whose reference database must already be
// populated (the recogniser is documented concurrency-safe for recognition
// after setup). The worker goroutines start immediately.
func New(rec *recognizer.Recognizer, cfg Config) (*Pipeline, error) {
	if rec == nil {
		return nil, errors.New("pipeline: nil recognizer")
	}
	cfg = cfg.withDefaults()
	p := &Pipeline{
		cfg:     cfg,
		rec:     rec,
		in:      make(chan job, cfg.QueueDepth),
		tracer:  trace.New(cfg.Workers, cfg.TraceBuffer),
		streams: make(map[*Stream]struct{}),
		owners:  make(map[*Owner]struct{}),
	}
	p.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go p.worker()
	}
	return p, nil
}

// Tracer returns the pipeline's per-frame flight recorder: every frame the
// pool touches stamps its stage boundaries into it, /tracez serves its
// snapshots, and Disarm/Arm toggle recording at runtime.
func (p *Pipeline) Tracer() *trace.Tracer { return p.tracer }

// Stats is a point-in-time snapshot of pool occupancy, the load signal the
// service layer exports on /statsz: how deep the shared queue is, how many
// streams hold capacity, and whether the pool is draining.
type Stats struct {
	Workers      int  // recognition goroutines
	QueueLen     int  // frames waiting in the shared queue right now
	QueueCap     int  // shared queue capacity
	Streams      int  // registered streams (batches hold one each while running)
	StreamWindow int  // per-stream in-flight frame bound
	Closed       bool // true once Close has begun
	// IngestAccepted and IngestDropped total the frames offered to (and
	// evicted from) the live-feed ring buffers in front of this pipeline's
	// streams (see Source). A growing dropped count under load is the ingest
	// layer working as designed: capture cadence held, excess frames shed.
	IngestAccepted uint64
	IngestDropped  uint64
	// Attached is the pool's current reference count — the number of owners
	// (systems) sharing it via Attach; zero for a pool used directly.
	Attached int
	// Owners attributes the pool's traffic per attachment, sorted by label
	// (ties broken by attach order). Detached owners no longer appear; their
	// traffic remains in the pool-wide aggregates above.
	Owners []OwnerStats
}

// Stats returns the current occupancy snapshot. Safe for concurrent use.
func (p *Pipeline) Stats() Stats {
	p.mu.RLock()
	s := Stats{
		Workers:        p.cfg.Workers,
		QueueLen:       len(p.in),
		QueueCap:       cap(p.in),
		Streams:        len(p.streams),
		StreamWindow:   p.cfg.StreamWindow,
		Closed:         p.closed,
		IngestAccepted: p.ingestAccepted.Load(),
		IngestDropped:  p.ingestDropped.Load(),
		Attached:       len(p.owners),
	}
	owners := make([]*Owner, 0, len(p.owners))
	for o := range p.owners {
		owners = append(owners, o)
	}
	p.mu.RUnlock()

	sort.Slice(owners, func(i, j int) bool {
		if owners[i].label != owners[j].label {
			return owners[i].label < owners[j].label
		}
		return owners[i].seq < owners[j].seq
	})
	for _, o := range owners {
		s.Owners = append(s.Owners, o.Stats())
	}
	return s
}

// worker is one recognition lane: it owns its scratch state for the life of
// the pipeline and drains the shared queue. Streams carrying a custom Proc
// run it in place of sign recognition, on the same scratch.
func (p *Pipeline) worker() {
	defer p.wg.Done()
	sc := recognizer.NewScratch()
	for j := range p.in {
		var res recognizer.Result
		deq := j.tr.Stamp(trace.StageDequeue)
		// The worker-dispatch failpoint: a delay policy slows the lane (the
		// overload generator for the chaos suite and E23), an error policy
		// completes the frame with the injected error without running the
		// stage.
		err := failpoint.Inject(failpoint.PipelineWorker)
		if err == nil {
			if j.st.proc != nil {
				res, err = j.st.proc(sc, j.seq, j.frame)
				// A custom proc is one opaque stage; the whole call counts as
				// classification.
				j.tr.Stamp(trace.StageClassify)
			} else {
				res, err = p.rec.RecognizeWith(sc, j.frame)
				// The recogniser already measured its internal stages; replay
				// its timings as cumulative offsets from the dequeue stamp so
				// the trace's binarize/features/classify spans are the
				// recogniser's own numbers, not a second clock.
				t := res.Timings
				bin := deq + int64(t.Threshold+t.Morph)
				feat := bin + int64(t.Contour+t.Encode)
				j.tr.StampAt(trace.StageBinarize, bin)
				j.tr.StampAt(trace.StageFeatures, feat)
				j.tr.StampAt(trace.StageClassify, feat+int64(t.Match))
			}
		}
		j.st.complete(j.seq, j.frame, j.tr, res, err)
	}
}

// enqueue places a job on the worker queue, failing once the pipeline is
// closed, or when ctx expires while the queue is full. The read lock spans
// the send so Close cannot close the channel under an in-flight send.
func (p *Pipeline) enqueue(ctx context.Context, j job) error {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed {
		return ErrClosed
	}
	select {
	case p.in <- j:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// QueueDepth reports the shared worker queue's current occupancy and
// capacity — the overload signal the server's admission control watches.
// Cheaper than Stats (no lock, no owner snapshot), safe for concurrent use.
func (p *Pipeline) QueueDepth() (queued, capacity int) { return len(p.in), cap(p.in) }

// NewStream registers a new frame source and returns its stream. Streams
// are independent: each delivers its results in submission order on its own
// Results channel regardless of how the pool interleaves the work.
func (p *Pipeline) NewStream() (*Stream, error) { return p.register(nil) }

// Proc is a custom per-frame stage run on the pool's workers in place of
// sign recognition — the dataflow-executor hook that lets other perception
// workloads (the gesture feature extractor) share the pool, its scratch
// state and its ordering/back-pressure machinery. A Proc is called from many
// worker goroutines, one frame at a time per worker; per-frame state must be
// keyed on seq (sequence numbers are unique per stream) and the scratch is
// owned by the calling worker for the duration of the call.
type Proc func(sc *recognizer.Scratch, seq uint64, frame *raster.Gray) (recognizer.Result, error)

// NewProcStream is NewStream for a custom per-frame stage: every frame
// submitted to the returned stream runs proc instead of the recogniser, with
// the same ordered delivery and back-pressure.
func (p *Pipeline) NewProcStream(proc Proc) (*Stream, error) {
	if proc == nil {
		return nil, errNilProc
	}
	return p.register(proc)
}

// register creates and tracks a stream with no owner attribution.
func (p *Pipeline) register(proc Proc) (*Stream, error) { return p.registerOwned(proc, nil) }

// registerOwned creates and tracks a stream, attributing it to owner when
// non-nil. The closed check, the owner's detached check and the stream's
// registration share one critical section with Close and the last detach, so
// a stream either registers on a live pool or fails with ErrClosed — a late
// NewStream can never race a concurrent shutdown into a half-registered
// stream or a leaked delivery goroutine.
func (p *Pipeline) registerOwned(proc Proc, owner *Owner) (*Stream, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed || (owner != nil && owner.detached) {
		return nil, ErrClosed
	}
	st := newStream(p)
	st.proc = proc
	st.owner = owner
	if owner != nil {
		st.traceOwner = p.tracer.LabelID(owner.label)
	}
	p.streams[st] = struct{}{}
	if owner != nil {
		owner.streams.Add(1)
		owner.streamsTotal.Add(1)
	}
	go st.emit()
	return st, nil
}

// beginCloseLocked flips the pipeline into its closed state and returns the
// streams that still need closing, or nil if it was already closed. Owners
// still attached are force-detached so a closed pool never reports live
// tenants (their Close calls become no-ops). The caller must hold p.mu
// (write) and, on a non-nil return, close the returned streams and wait on
// p.wg after releasing it.
func (p *Pipeline) beginCloseLocked() []*Stream {
	if p.closed {
		return nil
	}
	p.closed = true
	close(p.in)
	for o := range p.owners {
		o.detached = true
		delete(p.owners, o)
	}
	open := make([]*Stream, 0, len(p.streams))
	for st := range p.streams {
		open = append(open, st)
	}
	return open
}

// Close shuts the pipeline down: further Submits fail with ErrClosed,
// already-queued frames are recognised, every stream's Results channel is
// closed after its in-flight frames drain, and the workers exit. Close
// blocks until the workers have stopped and is idempotent. On a shared
// (Attach'd) pool, Close is the force-close escape hatch — process shutdown
// — that overrides the reference count; the cooperative path is each owner
// closing its own handle.
func (p *Pipeline) Close() {
	p.mu.Lock()
	open := p.beginCloseLocked()
	p.mu.Unlock()
	if open == nil {
		return
	}
	for _, st := range open {
		st.Close()
	}
	p.wg.Wait()
}

// recognizeBatchContext runs Owner.RecognizeBatchContext over a private
// stream from newStream. With a Done-less ctx and a nil recycle it is the
// plain batch: SubmitContext then submits exactly as Submit does.
func recognizeBatchContext(ctx context.Context, newStream func() (*Stream, error), frames []*raster.Gray, recycle func(*raster.Gray)) ([]recognizer.Result, []error, error) {
	// Validate up front: a nil frame mid-batch would otherwise break the
	// index↔sequence correspondence and surface as a misleading ErrClosed.
	for _, f := range frames {
		if f == nil {
			return nil, nil, ErrNilFrame
		}
	}
	if len(frames) == 0 {
		return []recognizer.Result{}, []error{}, nil
	}
	st, err := newStream()
	if err != nil {
		return nil, nil, err
	}
	results, errs, _, _ := st.Batch(ctx, frames, recycle)
	st.Close()
	return results, errs, nil
}

// Batch submits frames to the stream in order and returns their results in
// input order, one error slot per frame. Submission runs on its own
// goroutine, so a batch larger than the stream window cannot deadlock
// against the back-pressure it exercises, and Batch collects exactly the
// results of the frames that entered the stream (claimed), so a reused
// stream is empty again when it returns. Callers serialise Batch calls on
// one stream.
//
// Batch owns every frame: recycle (which may be nil) is called exactly once
// per frame — for each delivered result and each frame that never entered
// the stream before Batch returns, and, because Batch installs recycle as
// the stream's drop hook, from the drain goroutine for each frame an
// abandon drops. When ctx expires before the last claimed result, Batch
// abandons the stream (an ordered stream cannot skip a frame) and returns
// ctx.Err() as err. Unfinished slots carry ctx.Err() once ctx has expired,
// ErrClosed otherwise (the stream or the pool closed under the batch).
func (s *Stream) Batch(ctx context.Context, frames []*raster.Gray, recycle func(*raster.Gray)) (results []recognizer.Result, errs []error, claimed int, err error) {
	if recycle != nil {
		s.SetDropHook(recycle)
	}
	claimedCh := make(chan int, 1)
	go func() {
		n := 0
		for _, f := range frames {
			ok, err := s.SubmitContext(ctx, f)
			if ok {
				n++
			}
			if err != nil {
				break
			}
		}
		claimedCh <- n
	}()
	results = make([]recognizer.Result, len(frames))
	errs = make([]error, len(frames))
	collected := 0
	claimed = -1 // until the submitter reports
collect:
	for claimed < 0 || collected < claimed {
		select {
		case r, ok := <-s.out:
			if !ok {
				// The channel closes only once every claimed result has been
				// delivered, so the stream closed under the batch.
				break collect
			}
			results[collected], errs[collected] = r.Res, r.Err
			collected++
			if recycle != nil && r.Frame != nil {
				recycle(r.Frame)
			}
		case claimed = <-claimedCh:
		case <-ctx.Done():
			// Abandon routes the claimed-but-undelivered frames to the drop
			// hook and unblocks the submitter's window waits.
			s.Abandon()
			err = ctx.Err()
			break collect
		}
	}
	if claimed < 0 {
		claimed = <-claimedCh
	}
	tail := ErrClosed
	if cerr := ctx.Err(); cerr != nil {
		tail = cerr
	}
	for i := collected; i < len(frames); i++ {
		errs[i] = tail
		// Frames past claimed never entered the stream; claimed ones that
		// were not delivered belong to the drop hook.
		if i >= claimed && recycle != nil {
			recycle(frames[i])
		}
	}
	return results, errs, claimed, err
}

// StreamResult is one delivered recognition: the submitted frame (returned
// so callers can recycle pooled buffers), its sequence number within the
// stream, and the recogniser's verdict.
type StreamResult struct {
	Seq   uint64
	Frame *raster.Gray
	Res   recognizer.Result
	Err   error // nil, recognizer.ErrNoSign, a vision error, or ErrClosed

	tr trace.Handle // the frame's trace, finished at delivery or drop
}

// Stream is one ordered frame source. Submit and Close are safe for
// concurrent use, though a stream's ordering is only meaningful to whoever
// chose the submission order.
type Stream struct {
	p          *Pipeline
	proc       Proc   // nil: the default sign-recognition stage
	owner      *Owner // nil: opened directly on the Pipeline, unattributed
	traceOwner uint32 // interned owner label for trace attribution

	mu       sync.Mutex
	cond     *sync.Cond
	pending  map[uint64]StreamResult
	dropHook func(*raster.Gray) // under mu; receives frames of dropped results
	nextSeq  uint64             // next sequence number to assign
	nextEmit uint64             // next sequence number to deliver
	inflight int
	closed   bool

	out         chan StreamResult
	abandoned   chan struct{} // closed by Abandon: drop undelivered results
	abandonOnce sync.Once
}

func newStream(p *Pipeline) *Stream {
	st := &Stream{
		p:         p,
		pending:   make(map[uint64]StreamResult),
		out:       make(chan StreamResult, p.cfg.StreamWindow),
		abandoned: make(chan struct{}),
	}
	st.cond = sync.NewCond(&st.mu)
	return st
}

// Submit hands one frame to the pool. It blocks while the stream is at its
// in-flight window or the worker queue is full (back-pressure), and fails
// with ErrStreamClosed/ErrClosed once the stream or pipeline is closed. The
// frame must not be mutated until it comes back in a StreamResult.
//
// A nil frame is rejected on recognition streams (the recogniser needs
// pixels) but accepted on proc streams: a custom stage may carry its payload
// out of band keyed on seq — the graph runtime's non-vision workloads (LED
// rings, IMU windows, trajectories) dispatch exactly that way — and its Proc
// must therefore tolerate a nil frame argument.
func (s *Stream) Submit(frame *raster.Gray) error {
	_, err := s.submit(context.Background(), frame, trace.Handle{})
	return err
}

// SubmitContext is Submit with a deadline: both waits — the stream's
// in-flight window and a full worker queue — give up when ctx expires, so a
// stalled pool bounds the caller's latency instead of wedging it. The
// claimed return says who owns the frame on error: false means the frame
// never entered the stream's sequence and the caller keeps it; true means
// its result (possibly an error result) will be delivered like any other —
// exactly Submit's ErrClosed convention. A ctx with no deadline or
// cancellation behaves identically to Submit.
func (s *Stream) SubmitContext(ctx context.Context, frame *raster.Gray) (claimed bool, err error) {
	return s.submit(ctx, frame, trace.Handle{})
}

// submit is SubmitContext carrying an optional trace handle begun upstream
// (the ingest ring's Offer stamp); frames arriving without one begin their
// trace at the enqueue boundary.
func (s *Stream) submit(ctx context.Context, frame *raster.Gray, h trace.Handle) (claimed bool, err error) {
	if frame == nil && s.proc == nil {
		return false, ErrNilFrame
	}
	if err := ctx.Err(); err != nil {
		return false, err
	}
	if ctx.Done() != nil {
		// AfterFunc pokes the cond so a submit parked on the window wakes up
		// and notices the expired context.
		stop := context.AfterFunc(ctx, func() {
			s.mu.Lock()
			s.cond.Broadcast()
			s.mu.Unlock()
		})
		defer stop()
	}

	s.mu.Lock()
	for s.inflight >= s.p.cfg.StreamWindow && !s.closed && ctx.Err() == nil {
		s.cond.Wait()
	}
	if s.closed {
		s.mu.Unlock()
		return false, ErrStreamClosed
	}
	if err := ctx.Err(); err != nil {
		s.mu.Unlock()
		return false, err
	}
	seq := s.nextSeq
	s.nextSeq++
	s.inflight++
	s.mu.Unlock()

	h = s.traceEnqueue(h)
	if err := s.p.enqueue(ctx, job{st: s, seq: seq, frame: frame, tr: h}); err != nil {
		// The sequence number is already claimed; deliver the failure as a
		// result so the stream's ordering has no hole.
		s.complete(seq, frame, h, recognizer.Result{}, err)
		return true, err
	}
	return true, nil
}

// traceEnqueue stamps the enqueue boundary, beginning the trace first for
// frames that did not pass through an ingest ring.
func (s *Stream) traceEnqueue(h trace.Handle) trace.Handle {
	if !h.Active() {
		h = s.p.tracer.Begin(s.traceOwner)
	}
	h.Stamp(trace.StageEnqueue)
	return h
}

// Window returns the stream's in-flight frame bound (the pipeline's
// StreamWindow): at most Window frames are submitted-but-unemitted at any
// time, and at most another Window sit in the delivery buffer. Consumers
// sizing seq-indexed state (the gesture feature slab) derive it from this.
func (s *Stream) Window() int { return s.p.cfg.StreamWindow }

// Results is the stream's ordered delivery channel. It closes after Close
// once every in-flight frame has been delivered. Consumers must either
// drain the channel or call Abandon — a stream whose consumer silently
// stops reading parks its delivery goroutine.
func (s *Stream) Results() <-chan StreamResult { return s.out }

// Close marks the stream complete: further Submits fail, and Results closes
// once in-flight frames drain. Close never discards accepted work.
func (s *Stream) Close() {
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
}

// SetDropHook registers fn to receive the frame of every result this stream
// discards instead of delivering — the Abandon path — so pooled frame
// buffers checked out by the producer can be recycled rather than leaked
// (one reaped session used to strand up to a window of pooled buffers).
// Set it before the first Submit; fn may be called from the stream's
// delivery goroutine and must be safe for that.
func (s *Stream) SetDropHook(fn func(*raster.Gray)) {
	s.mu.Lock()
	s.dropHook = fn
	s.mu.Unlock()
}

// dropResult recycles one discarded result's frame through the drop hook
// and closes its trace with the abandon terminal. A result that was already
// finished — delivered before the consumer walked away — keeps its deliver
// terminal (Finish is exactly-once).
func (s *Stream) dropResult(r StreamResult) {
	r.tr.Finish(trace.TerminalAbandon)
	s.mu.Lock()
	fn := s.dropHook
	s.mu.Unlock()
	if fn != nil && r.Frame != nil {
		fn(r.Frame)
	}
}

// Abandon is Close for a consumer that is gone (a disconnected client):
// undelivered and in-flight results are dropped instead of delivered, so
// the stream's resources are released even though nobody reads Results.
// The channel still closes once the drop-drain finishes. Results already
// buffered are drained through the drop hook too; a consumer that is in
// fact still reading Results merely splits the remainder with that drain —
// each result reaches exactly one of the two, every dropped one through
// the hook — which is what lets gesture.Live abandon under its own live
// collector, both sides recycling through the same hook.
func (s *Stream) Abandon() {
	s.abandonOnce.Do(func() {
		close(s.abandoned)
		go func() {
			for r := range s.out {
				s.dropResult(r)
			}
		}()
	})
	s.Close()
}

// complete records one finished frame; called by workers and by Submit on
// enqueue failure.
func (s *Stream) complete(seq uint64, frame *raster.Gray, h trace.Handle, res recognizer.Result, err error) {
	if s.owner != nil {
		s.owner.frames.Add(1)
	}
	s.mu.Lock()
	s.pending[seq] = StreamResult{Seq: seq, Frame: frame, Res: res, Err: err, tr: h}
	s.cond.Broadcast()
	s.mu.Unlock()
}

// emit is the stream's delivery goroutine: it waits for the next in-order
// result and forwards it, so a slow consumer blocks only its own stream —
// workers deposit into the pending map and move on. An Abandon unblocks the
// send and turns the remaining deliveries into drops.
func (s *Stream) emit() {
	s.mu.Lock()
	for {
		if r, ok := s.pending[s.nextEmit]; ok {
			delete(s.pending, s.nextEmit)
			s.nextEmit++
			s.mu.Unlock()
			select {
			case s.out <- r:
				// Sent into the delivery buffer. Unless the consumer has
				// already abandoned — in which case the drop-drain will take
				// it and finish the trace as an abandon — that is delivery.
				select {
				case <-s.abandoned:
				default:
					r.tr.Stamp(trace.StageDeliver)
					r.tr.Finish(trace.TerminalDeliver)
				}
			case <-s.abandoned:
				// Consumer is gone; drop this and every later result,
				// recycling their frames through the drop hook.
				s.dropResult(r)
			}
			s.mu.Lock()
			s.inflight--
			s.cond.Broadcast()
			continue
		}
		if s.closed && s.inflight == 0 {
			s.mu.Unlock()
			close(s.out)
			s.forget()
			return
		}
		s.cond.Wait()
	}
}

// forget deregisters the stream from its pipeline once fully drained.
func (s *Stream) forget() {
	s.p.mu.Lock()
	delete(s.p.streams, s)
	s.p.mu.Unlock()
	if s.owner != nil {
		s.owner.streams.Add(-1)
	}
}

// String implements fmt.Stringer for diagnostics.
func (p *Pipeline) String() string {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return fmt.Sprintf("pipeline(workers=%d queue=%d/%d streams=%d closed=%v)",
		p.cfg.Workers, len(p.in), cap(p.in), len(p.streams), p.closed)
}
