package gesture

import (
	"errors"
	"sync/atomic"

	"hdc/internal/pipeline"
	"hdc/internal/raster"
	"hdc/internal/recognizer"
	"hdc/internal/timeseries"
)

// live.go routes gesture observation through the shared recognition worker
// pool: frames from a live feed enter a bounded drop-oldest ring
// (pipeline.Source), fan out over the pool's workers for feature extraction
// (a pipeline.Proc on each worker's pooled vision scratch), and come back in
// order to a single collector that slides a classification window over the
// feature series. Overload degrades to frame dropping at the ring — capture
// cadence is never stalled by a slow pool — and every dropped or processed
// frame is recycled through the session's OnFrame hook exactly once.

// StreamPool is the slice of the pipeline façade the live recogniser needs;
// *pipeline.Pipeline and *core.System both satisfy it.
type StreamPool interface {
	NewProcStream(pipeline.Proc) (*pipeline.Stream, error)
}

// LiveConfig tunes one live gesture session.
type LiveConfig struct {
	// Buffer is the ingest ring's capacity (default: two observation
	// windows). Smaller keeps the retained feed fresher; larger rides out
	// longer pool stalls before dropping.
	Buffer int
	// Stride is how many new frames arrive between window classifications
	// once the first window fills (default: half a cycle).
	Stride int
	// MatchBuffer is the Matches channel capacity (default 16); when the
	// consumer falls further behind, the oldest verdicts are counted dropped
	// rather than blocking the collector.
	MatchBuffer int
	// OnFrame receives every frame the session is finished with — processed
	// or dropped — exactly once: the recycle point for pooled buffers. May
	// be nil.
	OnFrame func(*raster.Gray)
}

func (c LiveConfig) withDefaults(r *Recognizer) LiveConfig {
	n := r.cfg.FramesPerCycle * r.cfg.WindowCycles
	if c.Buffer <= 0 {
		c.Buffer = 2 * n
	}
	if c.Stride <= 0 {
		c.Stride = r.cfg.FramesPerCycle / 2
		if c.Stride <= 0 {
			c.Stride = 1
		}
	}
	if c.MatchBuffer <= 0 {
		c.MatchBuffer = 16
	}
	return c
}

// WindowMatch is one sliding-window verdict from a live session.
type WindowMatch struct {
	// End is the stream sequence number of the window's newest frame.
	End   uint64
	Match Match
	// Err is nil for an accepted gesture or ErrNoGesture for a window that
	// matched nothing; any other error is a classification failure.
	Err error
}

// Live is a pipeline-backed live-feed gesture session. Offer is the
// producer side (never blocks); Matches is the consumer side.
type Live struct {
	r   *Recognizer
	st  *pipeline.Stream
	src *pipeline.Source
	cfg LiveConfig

	// slab carries per-frame features from the workers to the collector,
	// indexed by seq modulo its length. Its length exceeds the maximum
	// number of undelivered results (2×stream window), so a slot is never
	// rewritten before the collector has consumed it; the write happens
	// before the result's delivery, which orders it before the read.
	slab []Features

	winX, winY timeseries.Series // circular feature window
	bufX, bufY timeseries.Series // chronological copy handed to ClassifyWith
	cs         ClassifyScratch
	count      uint64 // frames folded into the window

	matches chan WindowMatch
	done    chan struct{}

	frames        atomic.Uint64
	badFrames     atomic.Uint64
	windows       atomic.Uint64
	matched       atomic.Uint64
	missedMatches atomic.Uint64
}

// NewLive opens a live gesture session on the pool. Close (flush) or
// Abandon (discard) it when the feed ends.
func (r *Recognizer) NewLive(p StreamPool, cfg LiveConfig) (*Live, error) {
	cfg = cfg.withDefaults(r)
	n := r.cfg.FramesPerCycle * r.cfg.WindowCycles
	l := &Live{
		r:       r,
		cfg:     cfg,
		winX:    make(timeseries.Series, n),
		winY:    make(timeseries.Series, n),
		bufX:    make(timeseries.Series, n),
		bufY:    make(timeseries.Series, n),
		matches: make(chan WindowMatch, cfg.MatchBuffer),
		done:    make(chan struct{}),
	}
	st, err := p.NewProcStream(l.proc)
	if err != nil {
		return nil, err
	}
	l.st = st
	l.slab = make([]Features, 2*st.Window()+4)
	// Frames whose results are discarded (Abandon) recycle through the same
	// hook as consumed ones; exactly one of the two paths sees each frame.
	st.SetDropHook(cfg.OnFrame)
	src, err := pipeline.NewSource(st, pipeline.SourceConfig{
		Capacity: cfg.Buffer,
		OnDrop:   cfg.OnFrame,
	})
	if err != nil {
		st.Close()
		return nil, err
	}
	l.src = src
	go l.collect()
	return l, nil
}

// proc is the per-frame worker stage: features into the slab.
func (l *Live) proc(sc *recognizer.Scratch, seq uint64, frame *raster.Gray) (recognizer.Result, error) {
	f, err := extractFrame(sc.Vision(), frame)
	if err != nil {
		return recognizer.Result{}, err
	}
	l.slab[seq%uint64(len(l.slab))] = f
	return recognizer.Result{}, nil
}

// Offer hands one live frame to the session and returns immediately; under
// overload the ring sheds its oldest frames (see pipeline.Source). The
// frame is owned by the session from here on and comes back via OnFrame.
func (l *Live) Offer(frame *raster.Gray) error { return l.src.Offer(frame) }

// Matches delivers the sliding-window verdicts. The channel closes once the
// session is closed or abandoned and the in-flight frames have drained.
func (l *Live) Matches() <-chan WindowMatch { return l.matches }

// Buffer returns the effective ingest ring capacity.
func (l *Live) Buffer() int { return l.cfg.Buffer }

// collect is the session's single consumer: it folds ordered per-frame
// features into the sliding window and classifies at each stride.
func (l *Live) collect() {
	defer close(l.done)
	defer close(l.matches)
	n := uint64(len(l.winX))
	stride := uint64(l.cfg.Stride)
	for res := range l.st.Results() {
		f := l.slab[res.Seq%uint64(len(l.slab))]
		if l.cfg.OnFrame != nil {
			l.cfg.OnFrame(res.Frame)
		}
		if res.Err != nil {
			// A frame with no usable silhouette (or a pool shutdown error)
			// contributes nothing; the window keeps its current contents.
			l.badFrames.Add(1)
			continue
		}
		l.frames.Add(1)
		l.winX[l.count%n] = f.CenX
		l.winY[l.count%n] = f.Aspect
		l.count++
		if l.count < n || (l.count-n)%stride != 0 {
			continue
		}
		for i := uint64(0); i < n; i++ {
			j := (l.count - n + i) % n
			l.bufX[i] = l.winX[j]
			l.bufY[i] = l.winY[j]
		}
		m, err := l.r.ClassifyWith(&l.cs, l.bufX, l.bufY)
		l.windows.Add(1)
		if err == nil {
			l.matched.Add(1)
		}
		select {
		case l.matches <- WindowMatch{End: res.Seq, Match: m, Err: err}:
		default:
			l.missedMatches.Add(1)
		}
	}
}

// Close ends the session gracefully: queued frames flush through the pool,
// remaining windows classify, Matches closes. Blocks until drained.
func (l *Live) Close() {
	l.src.Close()
	l.st.Close()
	<-l.done
}

// Abandon ends the session for a consumer that is gone: queued and
// in-flight frames are discarded (recycled through OnFrame) instead of
// classified. It returns without waiting — frames stuck behind a stalled
// pool finish recycling asynchronously as the pool lets go — so a reaper
// abandoning many sessions is never blocked by back-pressure. The
// session's collector keeps running and splits the remaining results with
// the stream's abandon drain (see Stream.Abandon); both recycle through
// the same OnFrame hook, so each frame still comes back exactly once.
func (l *Live) Abandon() {
	l.st.Abandon()
	l.src.Abandon()
}

// LiveStats is a point-in-time snapshot of one session.
type LiveStats struct {
	Accepted      uint64 // frames Offer took in
	Dropped       uint64 // frames shed by the ring (overload) or discard
	Depth         int    // frames queued in the ring right now
	Frames        uint64 // frames whose features entered the window
	BadFrames     uint64 // frames with no usable silhouette
	Windows       uint64 // windows classified
	Matched       uint64 // windows that accepted a gesture
	MissedMatches uint64 // verdicts dropped because the consumer lagged
}

// Stats reports the session's counters. Safe for concurrent use.
func (l *Live) Stats() LiveStats {
	ss := l.src.Stats()
	return LiveStats{
		Accepted:      ss.Accepted,
		Dropped:       ss.Dropped,
		Depth:         ss.Depth,
		Frames:        l.frames.Load(),
		BadFrames:     l.badFrames.Load(),
		Windows:       l.windows.Load(),
		Matched:       l.matched.Load(),
		MissedMatches: l.missedMatches.Load(),
	}
}

// ErrShortWindow is returned for observation windows shorter than one
// gesture cycle: the acceptance threshold is calibrated for full-cycle
// windows (distance grows with √n), so a handful of frames would z-norm
// into a trivially matchable shape and yield a confident bogus verdict.
var ErrShortWindow = errors.New("gesture: window shorter than one cycle")

// MinWindow is the smallest observation window a one-shot classification
// accepts (see nodes.ClassifyGestureWindow) — one full gesture cycle, the
// span phase-invariant matching needs.
func (r *Recognizer) MinWindow() int { return r.cfg.FramesPerCycle }
