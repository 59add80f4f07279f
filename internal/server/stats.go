package server

import (
	"runtime"
	"sync/atomic"
	"time"

	"hdc/internal/graph"
	"hdc/internal/latency"
	"hdc/internal/pipeline"
	"hdc/internal/sax/store"
)

// stats.go instruments the service: every endpoint keeps lock-free counters
// and an exponential latency histogram, and /statsz snapshots them together
// with the recognition pool's occupancy. The histogram trades exactness for
// zero allocation on the hot path: buckets double from 16 µs up, so the p50
// and p99 estimates carry at most one-bucket (≈2×) resolution error — the
// right fidelity for a load signal, and the loadgen reports exact
// percentiles when precision matters (E19).

// endpointLayout is the endpoint histograms' bucket layout: bucket 0 holds
// [0, 16µs); bucket i≥1 holds [16µs·2^(i-1), 16µs·2^i); the last bucket
// (24) is open-ended, catching everything from 16µs·2^23 ≈ 2.2 min up.
type endpointLayout struct{}

func (endpointLayout) Bucket0Ns() int64 { return 16_000 }
func (endpointLayout) Buckets() int     { return 25 }

// endpointStats is the per-endpoint counter set. All fields are atomics;
// record is safe from any number of request goroutines.
type endpointStats struct {
	hist   latency.Histogram[endpointLayout]
	errors atomic.Uint64
	frames atomic.Uint64
}

// record logs one request: its wall time, how many frames it carried and
// whether it failed.
func (e *endpointStats) record(d time.Duration, frames int, failed bool) {
	e.frames.Add(uint64(frames))
	if failed {
		e.errors.Add(1)
	}
	e.hist.Record(d.Nanoseconds())
}

// EndpointSnapshot is the JSON form of one endpoint's counters.
type EndpointSnapshot struct {
	Count  uint64  `json:"count"`
	Errors uint64  `json:"errors"`
	Frames uint64  `json:"frames"`
	MeanMS float64 `json:"mean_ms"`
	P50MS  float64 `json:"p50_ms"`
	P99MS  float64 `json:"p99_ms"`
	MaxMS  float64 `json:"max_ms"`
}

// snapshot folds the counters into their wire form. The percentile estimates
// are the upper bounds of the histogram buckets holding the p50/p99 ranks.
func (e *endpointStats) snapshot() EndpointSnapshot {
	h := e.hist.Snapshot()
	s := EndpointSnapshot{
		Count:  h.Count,
		Errors: e.errors.Load(),
		Frames: e.frames.Load(),
		P50MS:  float64(h.P50Ns) / 1e6,
		P99MS:  float64(h.P99Ns) / 1e6,
		MaxMS:  float64(h.MaxNs) / 1e6,
	}
	if s.Count > 0 {
		s.MeanMS = float64(h.TotalNs) / float64(s.Count) / 1e6
	}
	return s
}

// PoolSnapshot is the recognition pool's occupancy on the wire.
type PoolSnapshot struct {
	Started  bool `json:"started"`
	Closed   bool `json:"closed"`
	Workers  int  `json:"workers"`
	QueueLen int  `json:"queue_len"`
	QueueCap int  `json:"queue_cap"`
	Streams  int  `json:"streams"`
	// IngestAccepted/IngestDropped total the live-feed ring buffers in
	// front of the pool's streams: drops growing under load is the ingest
	// layer shedding frames instead of stalling capture.
	IngestAccepted uint64 `json:"ingest_accepted"`
	IngestDropped  uint64 `json:"ingest_dropped"`
	// Attached counts the systems sharing this pool (pipeline.Attach);
	// Owners breaks the pool's traffic down per attached system. A server
	// fronting a private system reports one owner; a server whose System
	// joined a fleet pool reports every tenant, which is how an operator
	// sees one wedged drone shedding at its own ring.
	Attached int             `json:"attached,omitempty"`
	Owners   []OwnerSnapshot `json:"owners,omitempty"`
}

// OwnerSnapshot is one attached system's share of the pool on the wire.
type OwnerSnapshot struct {
	Label          string `json:"label"`
	Streams        int    `json:"streams"`
	StreamsTotal   uint64 `json:"streams_total"`
	Frames         uint64 `json:"frames"`
	IngestAccepted uint64 `json:"ingest_accepted"`
	IngestDropped  uint64 `json:"ingest_dropped"`
}

// FramePoolSnapshot reports the server's frame-buffer checkout counters;
// gets−puts is the number of pooled frames currently out, which must stay
// bounded (a steadily growing gap is a frame leak).
type FramePoolSnapshot struct {
	Gets uint64 `json:"gets"`
	Puts uint64 `json:"puts"`
}

// SessionSnapshot summarises the stream-session table.
type SessionSnapshot struct {
	Open    int    `json:"open"`
	Created uint64 `json:"created"`
	Reaped  uint64 `json:"reaped"`
}

// MemSnapshot carries the allocation counters behind the latency numbers:
// TotalAlloc only ever grows, so its derivative under load is the service's
// true allocation rate (the pooled wire path should keep it near flat).
type MemSnapshot struct {
	HeapAllocBytes  uint64 `json:"heap_alloc_bytes"`
	TotalAllocBytes uint64 `json:"total_alloc_bytes"`
	NumGC           uint32 `json:"num_gc"`
	Goroutines      int    `json:"goroutines"`
}

// AdmissionSnapshot is the dependability layer's state on the wire:
// admission-control occupancy, the shed/degrade counters, and the
// overload/read-only signals that flip answers to the degraded path. A
// growing Rejected under steady load means the in-flight cap is the
// bottleneck; a nonzero Degraded means clients have been receiving stage-0
// answers (marked degraded:true per result).
type AdmissionSnapshot struct {
	InflightFrames    int64  `json:"inflight_frames"`
	MaxInflightFrames int    `json:"max_inflight_frames"`
	Rejected          uint64 `json:"rejected"`
	DegradedFrames    uint64 `json:"degraded_frames"`
	Overloaded        bool   `json:"overloaded"`
	StoreReadOnly     bool   `json:"store_read_only"`
}

// StatsResponse is the /statsz body. Store is present only when the process
// serves from an on-disk dictionary (Options.Store): its segment/tail/WAL
// shape is the signal that compaction is keeping up with appends, and its
// ReadOnly flag is the sticky write-failure latch that also drops the
// replica out of readiness.
type StatsResponse struct {
	UptimeS   float64                     `json:"uptime_s"`
	Draining  bool                        `json:"draining"`
	Admission AdmissionSnapshot           `json:"admission"`
	Pool      PoolSnapshot                `json:"pool"`
	FramePool FramePoolSnapshot           `json:"frame_pool"`
	Sessions  SessionSnapshot             `json:"sessions"`
	Endpoints map[string]EndpointSnapshot `json:"endpoints"`
	// Graphs carries live stats for the served dataflow topologies built so
	// far (graph.go); per-node pool attribution rides in Pool.Owners under
	// the "<graph>/<node>" labels.
	Graphs []graph.Stats `json:"graphs,omitempty"`
	Mem    MemSnapshot   `json:"mem"`
	Store  *store.Stats  `json:"store,omitempty"`
}

// ownerSnapshots converts the pool's per-owner stats to their wire form.
func ownerSnapshots(owners []pipeline.OwnerStats) []OwnerSnapshot {
	if len(owners) == 0 {
		return nil
	}
	out := make([]OwnerSnapshot, len(owners))
	for i, o := range owners {
		out[i] = OwnerSnapshot{
			Label:          o.Label,
			Streams:        o.Streams,
			StreamsTotal:   o.StreamsTotal,
			Frames:         o.Frames,
			IngestAccepted: o.IngestAccepted,
			IngestDropped:  o.IngestDropped,
		}
	}
	return out
}

// memSnapshot reads the runtime counters.
func memSnapshot() MemSnapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return MemSnapshot{
		HeapAllocBytes:  ms.HeapAlloc,
		TotalAllocBytes: ms.TotalAlloc,
		NumGC:           ms.NumGC,
		Goroutines:      runtime.NumGoroutine(),
	}
}
