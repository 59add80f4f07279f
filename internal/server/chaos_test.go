package server_test

import (
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hdc/internal/body"
	"hdc/internal/failpoint"
	"hdc/internal/gesture"
	"hdc/internal/pipeline"
	"hdc/internal/server"
	"hdc/internal/server/client"
)

// chaos_test.go is the randomized fault-injection suite: a controller
// goroutine flips failpoint schedules on and off while retrying clients
// drive batch, stream and live-gesture traffic at a small pool. The point is
// not any particular answer but the invariants that must hold through
// arbitrary fault interleavings:
//
//  1. the frame pool rebalances (gets == puts) once traffic drains — no
//     fault path leaks or double-recycles a buffer;
//  2. ingest sheds monotonically (dropped ≤ accepted), never corrupts;
//  3. every delivered result is well-formed — a known sign label when OK,
//     one of the reserved error values or an explicit injected fault
//     otherwise;
//  4. the service still drains cleanly afterwards (enforced by the
//     testService cleanup: Close would deadlock on a wedged pool).
//
// Schedules are randomized but the seed is logged, so a failure reproduces
// with a one-line edit. Failpoints are process-global state: nothing in this
// package runs in parallel, and every test disarms on exit.

// chaosPoints are the fault schedules the controller draws from. Specs keep
// probabilities below 1 so traffic always makes some progress.
var chaosPoints = []struct {
	name  string
	specs []string
}{
	{failpoint.PipelineWorker, []string{"delay(2ms)", "delay(5ms)", "25%error(injected worker fault)"}},
	{failpoint.PipelineRingForward, []string{"delay(2ms)", "50%error(injected forward fault)"}},
	{failpoint.ServerDecode, []string{"20%error(injected decode fault)"}},
	{failpoint.ServerSession, []string{"50%error(injected session fault)"}},
}

// chaosController randomly arms and disarms schedules until stop closes,
// then disarms everything.
func chaosController(rng *rand.Rand, stop <-chan struct{}, wg *sync.WaitGroup) {
	defer wg.Done()
	defer failpoint.DisableAll()
	for {
		select {
		case <-stop:
			return
		case <-time.After(time.Duration(5+rng.Intn(20)) * time.Millisecond):
		}
		p := chaosPoints[rng.Intn(len(chaosPoints))]
		if rng.Intn(3) == 0 {
			failpoint.Disable(p.name)
			continue
		}
		// Enabling can only fail on a bad spec, and these are fixed strings.
		_ = failpoint.Enable(p.name, p.specs[rng.Intn(len(p.specs))])
	}
}

// wellFormed reports whether a frame result is one the service is allowed to
// deliver under chaos: a known label, a reserved error value, or an
// explicitly injected fault. Anything else is corruption.
func wellFormed(known map[string]bool, r server.FrameResult) bool {
	if r.OK {
		return known[r.Sign]
	}
	switch r.Err {
	case server.ErrValueNoSign, server.ErrValueDraining, server.ErrValueDeadline:
		return true
	}
	return strings.HasPrefix(r.Err, "failpoint ")
}

// knownLabels is the label oracle for wellFormed.
func knownLabels() map[string]bool {
	known := make(map[string]bool)
	for _, s := range body.AllSigns() {
		known[s.String()] = true
	}
	return known
}

// chaosClient builds a retrying client tuned for the suite: fast backoff,
// a breaker that effectively never opens (the server is supposed to be
// flaky here — opening would just idle the operator).
func chaosClient(base string) *client.Client {
	return client.NewWithOptions(base, client.Options{
		Timeout:          2 * time.Second,
		MaxAttempts:      3,
		BaseBackoff:      time.Millisecond,
		MaxBackoff:       10 * time.Millisecond,
		BreakerThreshold: 1 << 30,
	})
}

// captureTracez writes a full /tracez snapshot to the file named by
// HDC_TRACEZ_CAPTURE, when set. CI exports the variable in the chaos job and
// uploads the file as a build artifact, so every run leaves a real trace
// payload — frames that travelled a faulted pipeline, with their terminals
// and stage breakdown — for offline inspection. A capture failure is logged,
// never fatal: the artifact is a byproduct, not an invariant.
func captureTracez(t *testing.T, c *client.Client) {
	path := os.Getenv("HDC_TRACEZ_CAPTURE")
	if path == "" {
		return
	}
	resp, err := c.Tracez(context.Background(), 0)
	if err != nil {
		t.Logf("tracez capture: %v", err)
		return
	}
	buf, err := json.MarshalIndent(resp, "", "  ")
	if err != nil {
		t.Logf("tracez capture: %v", err)
		return
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Logf("tracez capture: %v", err)
		return
	}
	t.Logf("tracez capture: %d frames to %s", len(resp.Frames), path)
}

// waitBalanced polls /statsz until the frame pool is balanced and admission
// shows no in-flight frames, failing after 10s. It returns the final stats.
func waitBalanced(t *testing.T, c *client.Client) server.StatsResponse {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		stats, err := c.Statsz(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if stats.FramePool.Gets == stats.FramePool.Puts && stats.Admission.InflightFrames == 0 {
			return stats
		}
		if time.Now().After(deadline) {
			t.Fatalf("pool never rebalanced: frame_pool=%+v admission=%+v",
				stats.FramePool, stats.Admission)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestChaosBatchAndStream runs mixed batch + ordered-stream traffic from
// retrying clients under randomized worker/decode/session faults, some
// requests carrying tight deadlines.
func TestChaosBatchAndStream(t *testing.T) {
	defer failpoint.DisableAll()
	seed := time.Now().UnixNano()
	t.Logf("chaos seed: %d", seed)

	sys, _, hs := testService(t, server.Options{MaxInflightFrames: 64},
		pipeline.Config{Workers: 2, QueueDepth: 2, StreamWindow: 4})
	signs := signPattern(0, 4)
	frames := signFrames(t, sys, signs)
	known := knownLabels()

	stop := make(chan struct{})
	var chaosWG sync.WaitGroup
	chaosWG.Add(1)
	go chaosController(rand.New(rand.NewSource(seed)), stop, &chaosWG)

	var delivered, malformed, failedReqs atomic.Int64
	note := func(results []server.FrameResult) {
		for _, r := range results {
			delivered.Add(1)
			if !wellFormed(known, r) {
				malformed.Add(1)
			}
		}
	}

	const operators = 4
	runFor := 2 * time.Second
	var opWG sync.WaitGroup
	for op := 0; op < operators; op++ {
		opWG.Add(1)
		go func(op int) {
			defer opWG.Done()
			rng := rand.New(rand.NewSource(seed + int64(op) + 1))
			c := chaosClient(hs.URL)
			until := time.Now().Add(runFor)
			for time.Now().Before(until) {
				ctx, cancel := context.Background(), context.CancelFunc(func() {})
				if rng.Intn(4) == 0 {
					// A tight budget: forwarded as X-Deadline-Ms, may expire
					// mid-request under a worker delay schedule.
					ctx, cancel = context.WithTimeout(ctx, 50*time.Millisecond)
				}
				if rng.Intn(2) == 0 {
					results, err := c.RecognizeBatch(ctx, frames)
					if err != nil {
						failedReqs.Add(1)
					} else {
						note(results)
					}
				} else {
					st, err := c.OpenStream(ctx)
					if err != nil {
						failedReqs.Add(1)
						cancel()
						continue
					}
					results, err := st.Submit(ctx, frames...)
					if err != nil {
						failedReqs.Add(1)
					} else {
						note(results)
					}
					_ = st.Close(context.Background())
				}
				cancel()
			}
		}(op)
	}
	opWG.Wait()
	close(stop)
	chaosWG.Wait()
	failpoint.DisableAll()

	if delivered.Load() == 0 {
		t.Fatalf("no results delivered through the chaos window (%d failed requests)", failedReqs.Load())
	}
	if malformed.Load() != 0 {
		t.Fatalf("%d of %d delivered results malformed", malformed.Load(), delivered.Load())
	}
	c := chaosClient(hs.URL)
	stats := waitBalanced(t, c)
	if stats.Pool.IngestDropped > stats.Pool.IngestAccepted {
		t.Fatalf("ingest dropped %d > accepted %d", stats.Pool.IngestDropped, stats.Pool.IngestAccepted)
	}
	captureTracez(t, c)
	t.Logf("chaos: delivered=%d failed_requests=%d rejected=%d",
		delivered.Load(), failedReqs.Load(), stats.Admission.Rejected)
}

// TestChaosGestureIngest drives a live gesture session through ring-forward
// and worker faults: offers must keep returning at capture cadence (shedding,
// not stalling), drop totals stay consistent, and the session closes cleanly
// with the pool balanced.
func TestChaosGestureIngest(t *testing.T) {
	defer failpoint.DisableAll()
	seed := time.Now().UnixNano()
	t.Logf("chaos seed: %d", seed)

	sys, hs := gestureService(t, server.Options{},
		pipeline.Config{Workers: 2, QueueDepth: 2, StreamWindow: 4})
	frames := gestureWindow(t, sys, gesture.GestureWave, 0, 24)

	stop := make(chan struct{})
	var chaosWG sync.WaitGroup
	chaosWG.Add(1)
	go chaosController(rand.New(rand.NewSource(seed)), stop, &chaosWG)

	c := chaosClient(hs.URL)
	gst, err := openGestureSession(context.Background(), hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	until := time.Now().Add(2 * time.Second)
	var offered, offerErrs int
	for time.Now().Before(until) {
		t0 := time.Now()
		if _, err := gst.Offer(context.Background(), frames[offered%len(frames)]); err != nil {
			offerErrs++
		}
		if el := time.Since(t0); el > time.Second {
			t.Fatalf("offer stalled %v under chaos — ingest must shed, not block", el)
		}
		offered++
		time.Sleep(2 * time.Millisecond)
	}
	close(stop)
	chaosWG.Wait()
	failpoint.DisableAll()

	feed, err := gst.Close(context.Background())
	if err != nil {
		t.Fatalf("closing gesture session after chaos: %v", err)
	}
	if feed.Dropped > feed.Accepted {
		t.Fatalf("session dropped %d > accepted %d", feed.Dropped, feed.Accepted)
	}
	stats := waitBalanced(t, c)
	if stats.Pool.IngestDropped > stats.Pool.IngestAccepted {
		t.Fatalf("ingest dropped %d > accepted %d", stats.Pool.IngestDropped, stats.Pool.IngestAccepted)
	}
	t.Logf("chaos gesture: offers=%d offer_errors=%d accepted=%d dropped=%d",
		offered, offerErrs, feed.Accepted, feed.Dropped)
}
