// Package trace is the always-on per-frame flight recorder of the
// recognition pipeline: every frame admitted to the pool carries a
// monotonically assigned ID, and each stage boundary it crosses — ingest
// offer, submit, worker dequeue, binarize, features, classify, delivery —
// stamps one nanosecond timestamp into a lock-free per-worker ring buffer.
// /tracez (internal/server) serves the recent completed traces plus a
// cumulative per-stage latency breakdown (p50/p99), which is what answers
// "where did frame 48213's 40 ms go?" without attaching a profiler.
//
// The design constraint is the ros2probe one, shared with
// internal/failpoint: selectively enabled instrumentation must cost
// ~nothing when idle. Disarmed, Begin is a single atomic load and every
// other hook is a nil-handle check (pinned by BenchmarkTraceDisabled in the
// benchgate key set); armed, a stage boundary is one atomic store into the
// frame's claimed ring slot. Slots are published with a per-slot seqlock
// (odd generation = in flight, even = complete, generation re-checked after
// the copy), so a /tracez scrape under full load can never observe a torn
// record — at worst it skips a slot being rewritten.
//
// A trace ends in exactly one terminal event: "deliver" (the result reached
// the consumer, errors included), "shed" (evicted at an ingest ring), or
// "abandon" (dropped by a deadline-abandoned stream). Finish's
// compare-and-swap on the slot generation is what makes the terminal
// exactly-once even when racing paths both try to end the same frame.
package trace

import (
	"sync"
	"sync/atomic"
	"time"

	"hdc/internal/latency"
)

// Stage indexes one boundary timestamp in a frame's trace record. Stages a
// frame never reached keep a zero timestamp and are omitted from snapshots;
// a frame entering through Stream.Submit directly (no ingest ring) simply
// has no StageOffer stamp.
type Stage int

// The stage boundaries of one frame's journey through the pipeline, in
// order. StageBinarize/StageFeatures/StageClassify are stamped by the
// worker from the recognizer's own per-stage timings, so their spans match
// what the recognizer measured; custom Proc stages stamp only
// StageClassify (the whole proc counts as classification).
const (
	StageOffer    Stage = iota // Source.Offer accepted the frame into an ingest ring
	StageEnqueue               // Submit claimed a sequence number and queued the frame
	StageDequeue               // a pool worker picked the frame off the shared queue
	StageBinarize              // threshold + morphological clean-up done
	StageFeatures              // contour signature + SAX encode done
	StageClassify              // dictionary match done (or the Proc returned)
	StageDeliver               // the ordered result reached the consumer
	numStages
)

// stageNames are the wire names of the boundaries.
var stageNames = [numStages]string{
	"offer", "enqueue", "dequeue", "binarize", "features", "classify", "deliver",
}

// Terminal is how a frame's trace ended.
type Terminal uint32

// Terminal events. Every begun trace ends in exactly one of the nonzero
// values; TerminalNone marks a record still in flight (skipped by
// snapshots).
const (
	TerminalNone    Terminal = iota
	TerminalDeliver          // result delivered to the consumer (errors included)
	TerminalShed             // evicted at an ingest ring (drop-oldest or forward fault)
	TerminalAbandon          // dropped by an abandoned stream (deadline, gone consumer)
)

// String returns the terminal's wire name.
func (t Terminal) String() string {
	switch t {
	case TerminalDeliver:
		return "deliver"
	case TerminalShed:
		return "shed"
	case TerminalAbandon:
		return "abandon"
	default:
		return "inflight"
	}
}

// numSpans is the number of aggregated latency intervals in the breakdown.
const numSpans = 6

// spans are the aggregated per-stage latency intervals, each bounded by two
// stage stamps. The breakdown /tracez serves (and BenchmarkStageBreakdown
// re-exports as sub-benchmarks) is one histogram per span.
var spans = [numSpans]struct {
	name     string
	from, to Stage
}{
	{"ingest", StageOffer, StageEnqueue},  // time parked in the ingest ring
	{"queue", StageEnqueue, StageDequeue}, // time in the shared worker queue
	{"binarize", StageDequeue, StageBinarize},
	{"features", StageBinarize, StageFeatures},
	{"classify", StageFeatures, StageClassify},
	{"deliver", StageClassify, StageDeliver}, // reorder + delivery-channel wait
}

// slot is one frame's trace record in a ring. All fields are atomics so a
// concurrent scrape is race-free by construction; gen is the seqlock.
type slot struct {
	gen      atomic.Uint64 // odd = in flight / being written, even = complete
	id       atomic.Uint64
	owner    atomic.Uint32 // label-table index, 0 = unattributed
	terminal atomic.Uint32
	ts       [numStages]atomic.Int64 // ns since the tracer's start; 0 = not reached
}

// ring is one worker's trace buffer: slots are claimed with an atomic
// counter, so claiming is lock-free from any goroutine, and each claimed
// slot has exactly one writer until its terminal event.
type ring struct {
	head  atomic.Uint64
	slots []slot
}

// spanLayout is the per-span histograms' bucket layout: bucket 0 holds
// [0, 256ns); bucket i≥1 holds [256ns·2^(i-1), 256ns·2^i); the last of the
// 32 buckets is open-ended (≈9 min up). Recording is a few atomic adds on
// the terminal path — never on a stage boundary.
type spanLayout struct{}

func (spanLayout) Bucket0Ns() int64 { return 256 }
func (spanLayout) Buckets() int     { return 32 }

// Tracer is the pipeline's trace recorder: one ring per worker, a frame-ID
// counter, the owner-label table and the cumulative span histograms. All
// methods are safe for concurrent use.
type Tracer struct {
	armed atomic.Bool
	next  atomic.Uint64 // frame IDs
	rings []*ring
	cap   int

	start     time.Time // monotonic base for all stamps
	startUnix int64     // wall clock at start, anchors StartUnixNs on the wire

	hists [numSpans]latency.Histogram[spanLayout]

	// Totals: begun counts Begin claims; the other three count terminal
	// events. Snapshot loads the terminals before begun so the
	// delivered+shed+abandoned ≤ begun invariant holds at every observable
	// instant.
	begun     atomic.Uint64
	delivered atomic.Uint64
	shed      atomic.Uint64
	abandoned atomic.Uint64

	labelMu sync.RWMutex
	labels  []string
	labelID map[string]uint32
}

// DefaultBuffer is the per-worker ring capacity used when the pipeline
// config leaves TraceBuffer zero.
const DefaultBuffer = 256

// New builds a tracer with one ring of perWorker slots for each of workers
// lanes, armed. perWorker is rounded up to a power of two (minimum 16) so
// slot selection is a mask.
func New(workers, perWorker int) *Tracer {
	if workers < 1 {
		workers = 1
	}
	if perWorker <= 0 {
		perWorker = DefaultBuffer
	}
	capPow := 16
	for capPow < perWorker {
		capPow <<= 1
	}
	now := time.Now()
	t := &Tracer{
		rings:     make([]*ring, workers),
		cap:       capPow,
		start:     now,
		startUnix: now.UnixNano(),
		labels:    []string{""},
		labelID:   map[string]uint32{"": 0},
	}
	for i := range t.rings {
		t.rings[i] = &ring{slots: make([]slot, capPow)}
	}
	t.armed.Store(true)
	return t
}

// Arm enables recording. New traces begin on the next Begin; frames already
// in flight while disarmed stay untraced.
func (t *Tracer) Arm() { t.armed.Store(true) }

// Disarm stops recording: Begin returns an inactive handle (one atomic
// load), and every stamp on an inactive handle is a nil check. Frames whose
// trace began while armed keep stamping into their claimed slot.
func (t *Tracer) Disarm() { t.armed.Store(false) }

// LabelID interns an owner label for stamping; the zero ID is the empty
// (unattributed) label. Called at stream registration, never per frame.
func (t *Tracer) LabelID(label string) uint32 {
	if label == "" {
		return 0
	}
	t.labelMu.RLock()
	id, ok := t.labelID[label]
	t.labelMu.RUnlock()
	if ok {
		return id
	}
	t.labelMu.Lock()
	defer t.labelMu.Unlock()
	if id, ok := t.labelID[label]; ok {
		return id
	}
	id = uint32(len(t.labels))
	t.labels = append(t.labels, label)
	t.labelID[label] = id
	return id
}

// label resolves an interned ID back to its string.
func (t *Tracer) label(id uint32) string {
	t.labelMu.RLock()
	defer t.labelMu.RUnlock()
	if int(id) < len(t.labels) {
		return t.labels[id]
	}
	return ""
}

// now returns nanoseconds since the tracer's monotonic base.
func (t *Tracer) now() int64 { return int64(time.Since(t.start)) }

// Handle is one frame's claim on a trace slot. The zero Handle is inactive:
// every method on it is a branch and returns immediately, which is how the
// disarmed pipeline pays nothing past Begin's single atomic load. Handles
// travel by value with the frame (in the pipeline job and StreamResult).
type Handle struct {
	t   *Tracer
	s   *slot
	gen uint64 // the odd generation this frame owns; stale after Finish
	id  uint64
}

// Active reports whether this handle records anywhere.
func (h Handle) Active() bool { return h.s != nil }

// Begin claims a trace record for a new frame attributed to the interned
// owner label. Disarmed, it is exactly one atomic load and returns the
// inactive handle. Armed, it assigns the next frame ID, claims the next
// slot of the frame's ring and resets it behind an odd seqlock generation.
func (t *Tracer) Begin(owner uint32) Handle {
	if !t.armed.Load() {
		return Handle{}
	}
	id := t.next.Add(1)
	r := t.rings[int(id)%len(t.rings)]
	idx := r.head.Add(1) - 1
	s := &r.slots[int(idx)&(t.cap-1)]
	// Claim: the odd generation derived from the global claim index is
	// unique per claimant, so a stale handle from a lapped frame can never
	// Finish this record (its CAS on the old generation fails).
	gen := 2*idx + 1
	s.gen.Store(gen)
	s.id.Store(id)
	s.owner.Store(owner)
	s.terminal.Store(uint32(TerminalNone))
	for i := range s.ts {
		s.ts[i].Store(0)
	}
	t.begun.Add(1)
	return Handle{t: t, s: s, gen: gen, id: id}
}

// Stamp records stage crossing now. One atomic store on an active handle,
// one branch on an inactive one. It returns the stamped offset (ns since
// the tracer base; 0 when inactive) so callers chaining derived stamps —
// the worker's recognizer-timing split — can reuse it.
func (h Handle) Stamp(stage Stage) int64 {
	if h.s == nil {
		return 0
	}
	ns := h.t.now()
	h.s.ts[stage].Store(ns)
	return ns
}

// StampAt records stage crossing at an explicit offset (ns since the tracer
// base), for boundaries derived from another measurement rather than
// observed directly.
func (h Handle) StampAt(stage Stage, ns int64) {
	if h.s == nil {
		return
	}
	h.s.ts[stage].Store(ns)
}

// Finish ends the trace with the given terminal event. Exactly one Finish
// per frame wins (the seqlock CAS from the frame's odd generation); late
// or duplicate calls — a racing deliver and abandon, a stale handle on a
// lapped slot — are no-ops. The winning Finish folds the frame's completed
// spans into the cumulative per-stage histograms and publishes the record
// for scraping.
func (h Handle) Finish(term Terminal) {
	if h.s == nil || term == TerminalNone {
		return
	}
	h.s.terminal.Store(uint32(term))
	if !h.s.gen.CompareAndSwap(h.gen, h.gen+1) {
		return
	}
	for i, sp := range spans {
		a := h.s.ts[sp.from].Load()
		b := h.s.ts[sp.to].Load()
		if a > 0 && b >= a {
			h.t.hists[i].Record(b - a)
		}
	}
	switch term {
	case TerminalDeliver:
		h.t.delivered.Add(1)
	case TerminalShed:
		h.t.shed.Add(1)
	case TerminalAbandon:
		h.t.abandoned.Add(1)
	}
}

// StageSpan is one boundary of a frame's trace on the wire: the stage name,
// the absolute instant it was crossed, and the duration since the previous
// stamped boundary (0 for the first).
type StageSpan struct {
	Stage   string `json:"stage"`
	AtUnix  int64  `json:"at_unix_ns"`
	SinceNs int64  `json:"since_prev_ns"`
}

// FrameTrace is one completed frame's record on the wire.
type FrameTrace struct {
	ID          uint64      `json:"frame_id"`
	Owner       string      `json:"owner,omitempty"`
	Terminal    string      `json:"terminal"`
	StartUnixNs int64       `json:"start_unix_ns"`
	TotalNs     int64       `json:"total_ns"`
	Stages      []StageSpan `json:"stages"`
}

// SpanStats is one span's cumulative latency aggregate on the wire.
type SpanStats struct {
	Stage   string `json:"stage"`
	Count   uint64 `json:"count"`
	MeanNs  int64  `json:"mean_ns"`
	P50Ns   int64  `json:"p50_ns"`
	P99Ns   int64  `json:"p99_ns"`
	MaxNs   int64  `json:"max_ns"`
	TotalNs int64  `json:"total_ns"`
}

// Totals are the tracer's lifetime counters. Delivered+Shed+Abandoned ≤
// Begun holds at every observable instant (the difference is frames in
// flight plus records lapped before finishing).
type Totals struct {
	Begun     uint64 `json:"begun"`
	Delivered uint64 `json:"delivered"`
	Shed      uint64 `json:"shed"`
	Abandoned uint64 `json:"abandoned"`
}

// Snapshot is the scrape /tracez serves.
type Snapshot struct {
	Armed   bool         `json:"armed"`
	Workers int          `json:"workers"`
	Buffer  int          `json:"buffer_per_worker"`
	Totals  Totals       `json:"totals"`
	Stages  []SpanStats  `json:"stages"`
	Frames  []FrameTrace `json:"frames"`
}

// Snapshot collects the most recent completed frame traces (newest first,
// at most limit; limit ≤ 0 means everything buffered) and the cumulative
// per-stage breakdown. Slots mid-write are skipped, never torn: each is
// copied under its seqlock generation and discarded if the generation moved.
func (t *Tracer) Snapshot(limit int) Snapshot {
	snap := Snapshot{
		Armed:   t.armed.Load(),
		Workers: len(t.rings),
		Buffer:  t.cap,
	}
	// Terminal counters before begun: a Begin racing this scrape may push
	// begun past the sum, never the other way around.
	snap.Totals.Delivered = t.delivered.Load()
	snap.Totals.Shed = t.shed.Load()
	snap.Totals.Abandoned = t.abandoned.Load()
	snap.Totals.Begun = t.begun.Load()

	for i, sp := range spans {
		h := t.hists[i].Snapshot()
		st := SpanStats{Stage: sp.name, Count: h.Count, MaxNs: h.MaxNs, TotalNs: h.TotalNs, P50Ns: h.P50Ns, P99Ns: h.P99Ns}
		if st.Count > 0 {
			st.MeanNs = st.TotalNs / int64(st.Count)
		}
		snap.Stages = append(snap.Stages, st)
	}

	type raw struct {
		id       uint64
		owner    uint32
		terminal Terminal
		ts       [numStages]int64
	}
	var recs []raw
	for _, r := range t.rings {
		for i := range r.slots {
			s := &r.slots[i]
			g1 := s.gen.Load()
			if g1 == 0 || g1%2 == 1 {
				continue // never used, or mid-write
			}
			var rec raw
			rec.id = s.id.Load()
			rec.owner = s.owner.Load()
			rec.terminal = Terminal(s.terminal.Load())
			for j := range rec.ts {
				rec.ts[j] = s.ts[j].Load()
			}
			if s.gen.Load() != g1 {
				continue // reclaimed under us; the copy may mix frames
			}
			if rec.terminal == TerminalNone {
				continue
			}
			recs = append(recs, rec)
		}
	}
	// Newest first; frame IDs are the global order.
	for i := 1; i < len(recs); i++ {
		for j := i; j > 0 && recs[j].id > recs[j-1].id; j-- {
			recs[j], recs[j-1] = recs[j-1], recs[j]
		}
	}
	if limit > 0 && len(recs) > limit {
		recs = recs[:limit]
	}
	for _, rec := range recs {
		ft := FrameTrace{ID: rec.id, Owner: t.label(rec.owner), Terminal: rec.terminal.String()}
		var first, last, prev int64
		for st := Stage(0); st < numStages; st++ {
			ns := rec.ts[st]
			if ns == 0 {
				continue
			}
			if first == 0 {
				first = ns
			}
			span := StageSpan{Stage: stageNames[st], AtUnix: t.startUnix + ns}
			if prev > 0 {
				span.SinceNs = ns - prev
			}
			ft.Stages = append(ft.Stages, span)
			prev = ns
			if ns > last {
				last = ns
			}
		}
		ft.StartUnixNs = t.startUnix + first
		ft.TotalNs = last - first
		snap.Frames = append(snap.Frames, ft)
	}
	return snap
}
