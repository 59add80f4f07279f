package pipeline

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"hdc/internal/failpoint"
	"hdc/internal/raster"
	"hdc/internal/recognizer"
)

// context_test.go covers the deadline-aware submission paths: SubmitContext
// must bound both the window wait and the queue wait, and
// RecognizeBatchContext must return promptly on an expired deadline while
// recycling every pooled frame exactly once — including the ones a stalled
// worker still holds when the caller gives up.

// countingRecycler tracks recycle calls per frame pointer.
type countingRecycler struct {
	mu    sync.Mutex
	count map[*raster.Gray]int
}

func newCountingRecycler() *countingRecycler {
	return &countingRecycler{count: make(map[*raster.Gray]int)}
}

func (c *countingRecycler) recycle(f *raster.Gray) {
	c.mu.Lock()
	c.count[f]++
	c.mu.Unlock()
}

// total returns (frames recycled once, frames recycled more than once).
func (c *countingRecycler) total() (once, multi int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, n := range c.count {
		if n == 1 {
			once++
		} else {
			multi++
		}
	}
	return
}

// stallProc parks every frame until release is closed.
func stallProc(release <-chan struct{}) Proc {
	return func(_ *recognizer.Scratch, _ uint64, _ *raster.Gray) (recognizer.Result, error) {
		<-release
		return recognizer.Result{}, nil
	}
}

func grayFrames(t *testing.T, n int) []*raster.Gray {
	t.Helper()
	frames := make([]*raster.Gray, n)
	for i := range frames {
		g, err := raster.NewGray(8, 8)
		if err != nil {
			t.Fatal(err)
		}
		frames[i] = g
	}
	return frames
}

func TestSubmitContextBoundsWindowWait(t *testing.T) {
	rec, _ := newRecognizer(t)
	p, err := New(rec, Config{Workers: 1, QueueDepth: 1, StreamWindow: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	release := make(chan struct{})
	st, err := p.NewProcStream(stallProc(release))
	if err != nil {
		t.Fatal(err)
	}

	frames := grayFrames(t, 2)
	if err := st.Submit(frames[0]); err != nil { // fills the window
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	claimed, err := st.SubmitContext(ctx, frames[1])
	if claimed || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("SubmitContext = %v, %v", claimed, err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("window wait not bounded: %v", d)
	}
	close(release)
	st.Abandon()
}

func TestRecognizeBatchContextDeadline(t *testing.T) {
	rec, _ := newRecognizer(t)
	p, err := New(rec, Config{Workers: 1, QueueDepth: 2, StreamWindow: 2})
	if err != nil {
		t.Fatal(err)
	}

	// Stall the single worker via the worker failpoint so queued frames sit.
	if err := failpoint.Enable(failpoint.PipelineWorker, "delay(100ms)"); err != nil {
		t.Fatal(err)
	}
	defer failpoint.DisableAll()

	const n = 8
	frames := grayFrames(t, n)
	rc := newCountingRecycler()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Millisecond)
	defer cancel()
	start := time.Now()
	results, errs, err := p.RecognizeBatchContext(ctx, frames, rc.recycle)
	if err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("batch not bounded by deadline: %v", d)
	}
	if len(results) != n || len(errs) != n {
		t.Fatalf("result shape %d/%d", len(results), len(errs))
	}
	deadline := 0
	for _, e := range errs {
		if errors.Is(e, context.DeadlineExceeded) {
			deadline++
		}
	}
	if deadline == 0 {
		t.Fatalf("no frame marked deadline-exceeded: %v", errs)
	}

	// Every frame must come back through recycle exactly once — delivered,
	// dropped by the abandon, or never submitted — once the stalled workers
	// let go.
	failpoint.DisableAll()
	waitUntil(t, 5*time.Second, func() bool {
		once, multi := rc.total()
		return once == n && multi == 0
	})
	p.Close()
	once, multi := rc.total()
	if once != n || multi != 0 {
		t.Fatalf("recycled once=%d multi=%d, want %d/0", once, multi, n)
	}
}

func TestRecognizeBatchContextNoDeadlineMatchesBatch(t *testing.T) {
	rec, rend := newRecognizer(t)
	p, err := New(rec, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	frames, _ := renderSigns(t, rend, 6)
	// Sequential reference results before the batch consumes the frames.
	want := make([]recognizer.Result, len(frames))
	for i, f := range frames {
		r, err := rec.Recognize(f)
		if err != nil {
			t.Fatalf("sequential frame %d: %v", i, err)
		}
		want[i] = r
	}
	rc := newCountingRecycler()
	results, errs, err := p.RecognizeBatchContext(context.Background(), frames, rc.recycle)
	if err != nil {
		t.Fatal(err)
	}
	for i := range results {
		if errs[i] != nil {
			t.Fatalf("frame %d: %v", i, errs[i])
		}
		if results[i].Sign != want[i].Sign || results[i].Label != want[i].Label {
			t.Fatalf("frame %d: got %v want %v", i, results[i].Sign, want[i].Sign)
		}
	}
	once, multi := rc.total()
	if once != len(frames) || multi != 0 {
		t.Fatalf("recycled once=%d multi=%d", once, multi)
	}
}

func waitUntil(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !cond() {
		t.Fatal("condition not reached before timeout")
	}
}

// TestStreamBatchReusedStream runs Stream.Batch over one stream the way a
// server session does: successive batches keep input order (one larger
// than the window, so submission races collection), every pooled frame
// recycles exactly once, and an expired ctx answers the tail with ctx.Err()
// and abandons the stream.
func TestStreamBatchReusedStream(t *testing.T) {
	rec, _ := newRecognizer(t)
	p, err := New(rec, Config{Workers: 2, QueueDepth: 2, StreamWindow: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	// Each frame carries its batch-wide index in its first pixel; the proc
	// echoes it back so the test can read order off the results. A frame
	// marked stallMark parks its worker until release closes.
	const stallMark = 255
	release := make(chan struct{})
	var releaseOnce sync.Once
	unstall := func() { releaseOnce.Do(func() { close(release) }) }
	defer unstall() // a failing test must not leave p.Close waiting on the stall
	st, err := p.NewProcStream(func(_ *recognizer.Scratch, _ uint64, f *raster.Gray) (recognizer.Result, error) {
		if f.Pix[0] == stallMark {
			<-release
		}
		return recognizer.Result{Confidence: float64(f.Pix[0])}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var pool raster.Pool
	batch := func(first, n int) []*raster.Gray {
		frames := make([]*raster.Gray, n)
		for i := range frames {
			frames[i] = pool.Get(8, 8)
			frames[i].Pix[0] = byte(first + i)
		}
		return frames
	}
	balanced := func() bool {
		gets, puts := pool.Stats()
		return gets == puts
	}

	next := 0
	for _, n := range []int{1, 5, 3} {
		res, errs, claimed, err := st.Batch(context.Background(), batch(next, n), pool.Put)
		if err != nil || claimed != n {
			t.Fatalf("batch of %d: claimed %d, err %v", n, claimed, err)
		}
		for i := range res {
			if errs[i] != nil || res[i].Confidence != float64(next+i) {
				t.Fatalf("batch of %d, slot %d: %v (err %v), want %d", n, i, res[i].Confidence, errs[i], next+i)
			}
		}
		if !balanced() {
			t.Fatalf("batch of %d left the pool unbalanced", n)
		}
		next += n
	}

	// The stalled second frame holds the window, so the batch cannot finish
	// before its 50 ms budget.
	frames := batch(next, 6)
	frames[1].Pix[0] = stallMark
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	rc := newCountingRecycler()
	res, errs, claimed, err := st.Batch(ctx, frames, func(g *raster.Gray) {
		rc.recycle(g)
		pool.Put(g)
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired batch: err %v", err)
	}
	if claimed < 2 || claimed >= len(frames) {
		t.Fatalf("expired batch claimed %d of %d", claimed, len(frames))
	}
	if errs[0] != nil || res[0].Confidence != float64(next) {
		t.Fatalf("slot 0 before the stall: %v (err %v)", res[0].Confidence, errs[0])
	}
	for i := 1; i < len(frames); i++ {
		if !errors.Is(errs[i], context.DeadlineExceeded) {
			t.Fatalf("tail slot %d: %v, want ctx.Err()", i, errs[i])
		}
	}
	// On a stream that was not abandoned this probe would wait on the full
	// window; the timeout turns that into a failure instead of a hang.
	probe, cancelProbe := context.WithTimeout(context.Background(), time.Second)
	defer cancelProbe()
	if claimed, err := st.SubmitContext(probe, nil); claimed || !errors.Is(err, ErrStreamClosed) {
		t.Fatalf("submit after the abandon: claimed %v, err %v", claimed, err)
	}

	// The claimed-but-undelivered frames recycle through the drop hook once
	// the stalled worker lets go; the drained stream then deregisters.
	unstall()
	waitUntil(t, 5*time.Second, func() bool {
		once, multi := rc.total()
		return p.Stats().Streams == 0 && once+multi == len(frames)
	})
	if once, multi := rc.total(); once != len(frames) || multi != 0 {
		t.Fatalf("expired batch recycled once=%d multi=%d, want %d/0", once, multi, len(frames))
	}
	if !balanced() {
		gets, puts := pool.Stats()
		t.Fatalf("after the drain: %d gets, %d puts", gets, puts)
	}
}
