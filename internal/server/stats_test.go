package server

import (
	"testing"
	"time"

	"hdc/internal/latency"
)

// TestBucketBoundaries pins the histogram's edge semantics — bucket 0 is
// [0, 16µs), bucket i≥1 is [16µs·2^(i-1), 16µs·2^i), the top bucket is
// open-ended — at exactly the boundaries the old comment misplaced.
func TestBucketBoundaries(t *testing.T) {
	const (
		latencyBuckets   = 25
		latencyBucket0Ns = 16_000
	)
	if l := (endpointLayout{}); l.Buckets() != latencyBuckets || l.Bucket0Ns() != latencyBucket0Ns {
		t.Fatalf("endpoint layout %d×%dns, want %d×%dns", l.Buckets(), l.Bucket0Ns(), latencyBuckets, latencyBucket0Ns)
	}
	var h latency.Histogram[endpointLayout]
	bucketOf := func(d time.Duration) int { return h.Bucket(d.Nanoseconds()) }
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 0},
		{16*time.Microsecond - time.Nanosecond, 0}, // last duration of bucket 0
		{16 * time.Microsecond, 1},                 // first duration of bucket 1
		{32*time.Microsecond - time.Nanosecond, 1},
		{32 * time.Microsecond, 2},
		{time.Duration(latencyBucket0Ns) << (latencyBuckets - 2), latencyBuckets - 1}, // first of the top bucket
		{time.Duration(latencyBucket0Ns)<<(latencyBuckets-2) - 1, latencyBuckets - 2}, // last below it
		{24 * time.Hour, latencyBuckets - 1},                                          // open-ended top
		{time.Duration(latencyBucket0Ns) << (latencyBuckets + 4), latencyBuckets - 1}, // far past the table
	}
	for _, c := range cases {
		if got := bucketOf(c.d); got != c.want {
			t.Errorf("bucketOf(%v) = %d, want %d", c.d, got, c.want)
		}
	}
	// Upper edges: bucket 0 ends exactly where bucket 1 begins, and each
	// bucket's reported edge is the next bucket's first duration.
	if h.UpperNs(0) != 16_000 {
		t.Fatalf("UpperNs(0) = %d, want 16000", h.UpperNs(0))
	}
	for b := 0; b < latencyBuckets-1; b++ {
		edge := time.Duration(h.UpperNs(b))
		if got := bucketOf(edge); got != b+1 {
			t.Errorf("duration at UpperNs(%d) lands in bucket %d, want %d", b, got, b+1)
		}
		if got := bucketOf(edge - time.Nanosecond); got != b {
			t.Errorf("duration just under UpperNs(%d) lands in bucket %d, want %d", b, got, b)
		}
	}
}
