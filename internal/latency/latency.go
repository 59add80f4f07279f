// Package latency is the repo's one latency histogram: lock-free
// power-of-two buckets that the service's per-endpoint /statsz counters
// and the tracer's per-span /tracez breakdown both record into. Recording
// is a handful of atomic adds with no allocation, so it sits on every
// request and every traced frame; the price is resolution — a percentile
// is reported as the upper edge of the bucket holding its rank, at most 2×
// the true value.
//
// Each caller fixes its bucket edges with a Layout type, so the edges are
// part of the histogram's type and a zero Histogram is ready to use.
package latency

import (
	"math/bits"
	"sync/atomic"
)

// MaxBuckets bounds a Layout's bucket count. The counters are one fixed
// array of this size, so a Histogram never allocates.
const MaxBuckets = 32

// Layout fixes a histogram's bucket edges: bucket 0 holds [0, Bucket0Ns),
// bucket i≥1 holds [Bucket0Ns·2^(i-1), Bucket0Ns·2^i), and the last of the
// Buckets buckets is open-ended. Implementations are empty struct types
// whose methods return constants.
type Layout interface {
	// Bucket0Ns is the exclusive upper edge of bucket 0, in nanoseconds
	// (> 0).
	Bucket0Ns() int64
	// Buckets is the bucket count, in [1, MaxBuckets].
	Buckets() int
}

// Histogram is a cumulative latency histogram with the bucket edges of L.
// All methods are safe for concurrent use; a Histogram must not be copied
// after first use.
type Histogram[L Layout] struct {
	count   atomic.Uint64
	totalNs atomic.Int64
	maxNs   atomic.Int64
	buckets [MaxBuckets]atomic.Uint64
}

// Bucket returns the index of the bucket holding a duration of ns
// nanoseconds; negative durations fall in bucket 0.
func (h *Histogram[L]) Bucket(ns int64) int {
	var l L
	if ns < l.Bucket0Ns() {
		return 0
	}
	// ns ≥ Bucket0Ns·2^(b-1) exactly when ⌊ns/Bucket0Ns⌋ has b bits.
	b := bits.Len64(uint64(ns / l.Bucket0Ns()))
	if top := l.Buckets() - 1; b > top {
		return top
	}
	return b
}

// UpperNs returns the exclusive upper edge of bucket b in nanoseconds. The
// top bucket is open-ended, so its edge is only the value the percentile
// estimator reports for it.
func (h *Histogram[L]) UpperNs(b int) int64 {
	var l L
	return l.Bucket0Ns() << uint(b)
}

// Record folds one observed duration of ns nanoseconds into the histogram.
func (h *Histogram[L]) Record(ns int64) {
	h.count.Add(1)
	h.totalNs.Add(ns)
	for {
		old := h.maxNs.Load()
		if ns <= old || h.maxNs.CompareAndSwap(old, ns) {
			break
		}
	}
	h.buckets[h.Bucket(ns)].Add(1)
}

// PercentileUpperNs returns the upper edge of the bucket of counts (one
// count per bucket, total their sum) holding the p-th percentile rank —
// the first sample that exceeds p% of the population, so a 1-in-100 tail
// still surfaces in the p99.
func (h *Histogram[L]) PercentileUpperNs(counts []uint64, total uint64, p int) int64 {
	rank := total*uint64(p)/100 + 1
	if rank > total {
		rank = total
	}
	var cum uint64
	for i, c := range counts {
		cum += c
		if cum >= rank {
			return h.UpperNs(i)
		}
	}
	return h.UpperNs(len(counts) - 1)
}

// Snapshot is a point-in-time read of a Histogram. The percentile fields
// are bucket upper edges (see PercentileUpperNs), zero while the histogram
// is empty.
type Snapshot struct {
	Count   uint64
	TotalNs int64
	MaxNs   int64
	P50Ns   int64
	P99Ns   int64
}

// Snapshot reads the histogram's counters and its p50 and p99 estimates.
func (h *Histogram[L]) Snapshot() Snapshot {
	s := Snapshot{
		Count:   h.count.Load(),
		TotalNs: h.totalNs.Load(),
		MaxNs:   h.maxNs.Load(),
	}
	var l L
	var buf [MaxBuckets]uint64
	counts := buf[:l.Buckets()]
	var total uint64
	for i := range counts {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
	}
	if total > 0 {
		s.P50Ns = h.PercentileUpperNs(counts, total, 50)
		s.P99Ns = h.PercentileUpperNs(counts, total, 99)
	}
	return s
}
