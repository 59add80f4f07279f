package pipeline

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"hdc/internal/body"
	"hdc/internal/raster"
	"hdc/internal/recognizer"
	"hdc/internal/scene"
)

// newRecognizer builds a calibrated recogniser and renderer for tests.
func newRecognizer(t testing.TB) (*recognizer.Recognizer, *scene.Renderer) {
	t.Helper()
	rec, err := recognizer.New(recognizer.Config{})
	if err != nil {
		t.Fatal(err)
	}
	rend := scene.NewRenderer(scene.Config{Width: 128, Height: 128})
	if err := rec.BuildReferences(rend, scene.ReferenceView()); err != nil {
		t.Fatal(err)
	}
	return rec, rend
}

// renderSigns renders one frame per sign at slightly different azimuths so
// consecutive frames have distinguishable expected results.
func renderSigns(t testing.TB, rend *scene.Renderer, n int) ([]*raster.Gray, []body.Sign) {
	t.Helper()
	signs := body.AllSigns()
	frames := make([]*raster.Gray, n)
	expect := make([]body.Sign, n)
	for i := 0; i < n; i++ {
		s := signs[i%len(signs)]
		v := scene.ReferenceView()
		v.AzimuthDeg = float64((i * 7) % 30)
		f, err := rend.Render(s, v, body.Options{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		frames[i] = f
		expect[i] = s
	}
	return frames, expect
}

// TestStreamOrdering8Producers drives eight concurrent streams through a
// small pool and asserts every stream receives its own results strictly in
// submission order, with each result matching what a sequential Recognize
// of the same frame produces.
func TestStreamOrdering8Producers(t *testing.T) {
	rec, rend := newRecognizer(t)
	const producers = 8
	const perStream = 12

	frames, _ := renderSigns(t, rend, perStream)
	// Sequential ground truth per frame index.
	want := make([]recognizer.Result, perStream)
	for i, f := range frames {
		r, err := rec.Recognize(f)
		if err != nil && !errors.Is(err, recognizer.ErrNoSign) {
			t.Fatal(err)
		}
		want[i] = r
	}

	p, err := New(rec, Config{Workers: 4, QueueDepth: 4, StreamWindow: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	var wg sync.WaitGroup
	errCh := make(chan error, producers)
	for s := 0; s < producers; s++ {
		st, err := p.NewStream()
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(2)
		// Producer: submits the shared frame sequence.
		go func() {
			defer wg.Done()
			defer st.Close()
			for _, f := range frames {
				if err := st.Submit(f); err != nil {
					errCh <- fmt.Errorf("submit: %w", err)
					return
				}
			}
		}()
		// Consumer: asserts in-order delivery and per-frame correctness.
		go func() {
			defer wg.Done()
			next := uint64(0)
			for r := range st.Results() {
				if r.Seq != next {
					errCh <- fmt.Errorf("out of order: got seq %d, want %d", r.Seq, next)
					return
				}
				w := want[r.Seq]
				if r.Res.OK != w.OK || r.Res.Sign != w.Sign || r.Res.Label != w.Label {
					errCh <- fmt.Errorf("seq %d: got (%v %v %q), want (%v %v %q)",
						r.Seq, r.Res.OK, r.Res.Sign, r.Res.Label, w.OK, w.Sign, w.Label)
					return
				}
				next++
			}
			if next != perStream {
				errCh <- fmt.Errorf("stream delivered %d/%d results", next, perStream)
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}

// TestRecognizeBatchMatchesSequential checks the batch API returns results
// in input order identical to the sequential path.
func TestRecognizeBatchMatchesSequential(t *testing.T) {
	rec, rend := newRecognizer(t)
	frames, _ := renderSigns(t, rend, 10)

	p, err := New(rec, Config{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	results, errs, err := p.RecognizeBatch(frames)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(frames) || len(errs) != len(frames) {
		t.Fatalf("batch sizes: %d results, %d errs for %d frames", len(results), len(errs), len(frames))
	}
	for i, f := range frames {
		want, werr := rec.Recognize(f)
		if (werr == nil) != (errs[i] == nil) && !errors.Is(errs[i], recognizer.ErrNoSign) {
			t.Fatalf("frame %d: err %v, want %v", i, errs[i], werr)
		}
		if results[i].OK != want.OK || results[i].Sign != want.Sign {
			t.Fatalf("frame %d: got (%v %v), want (%v %v)",
				i, results[i].OK, results[i].Sign, want.OK, want.Sign)
		}
	}
}

// TestSubmitAfterCloseFails covers stream and pipeline shutdown semantics.
func TestSubmitAfterCloseFails(t *testing.T) {
	rec, rend := newRecognizer(t)
	frames, _ := renderSigns(t, rend, 1)

	p, err := New(rec, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	st, err := p.NewStream()
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Submit(frames[0]); err != nil {
		t.Fatal(err)
	}
	st.Close()
	if err := st.Submit(frames[0]); !errors.Is(err, ErrStreamClosed) {
		t.Fatalf("submit after stream close: %v", err)
	}
	// The accepted frame still arrives, then the channel closes.
	n := 0
	for range st.Results() {
		n++
	}
	if n != 1 {
		t.Fatalf("drained %d results, want 1", n)
	}

	p.Close()
	if _, err := p.NewStream(); !errors.Is(err, ErrClosed) {
		t.Fatalf("NewStream after close: %v", err)
	}
	p.Close() // idempotent
}

// TestNilFrameRejected guards the nil-frame fast failure.
func TestNilFrameRejected(t *testing.T) {
	rec, _ := newRecognizer(t)
	p, err := New(rec, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	st, err := p.NewStream()
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Submit(nil); !errors.Is(err, ErrNilFrame) {
		t.Fatalf("nil frame: %v", err)
	}
}

// TestAbandonReleasesAbandonedStream wedges the pool on a stream nobody
// reads, then checks Abandon unblocks everything and the Results channel
// still closes — the disconnected-client path.
func TestAbandonReleasesAbandonedStream(t *testing.T) {
	rec, rend := newRecognizer(t)
	frames, _ := renderSigns(t, rend, 1)
	p, err := New(rec, Config{Workers: 2, QueueDepth: 2, StreamWindow: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	st, err := p.NewStream()
	if err != nil {
		t.Fatal(err)
	}
	submitDone := make(chan error, 1)
	go func() {
		var lastErr error
		for i := 0; i < 16; i++ {
			if err := st.Submit(frames[0]); err != nil {
				lastErr = err
				break
			}
		}
		submitDone <- lastErr
	}()
	time.Sleep(100 * time.Millisecond) // let the unread stream wedge the pool
	st.Abandon()
	if err := <-submitDone; err != nil && !errors.Is(err, ErrStreamClosed) {
		t.Fatalf("submit after abandon: %v", err)
	}
	deadline := time.After(10 * time.Second)
	for {
		select {
		case _, ok := <-st.Results():
			if !ok {
				return // channel closed: stream fully released
			}
		case <-deadline:
			t.Fatal("Results did not close after Abandon")
		}
	}
}

// TestAbandonRecyclesPooledFrames is the regression test for the pooled-
// frame leak: results dropped on the abandon path (and results stranded in
// the delivery buffer) carry frames a producer checked out of a pool; the
// drop hook must hand every one of them back. Before the hook existed, each
// abandoned stream leaked up to a window of pooled buffers.
func TestAbandonRecyclesPooledFrames(t *testing.T) {
	rec, _ := newRecognizer(t)
	p, err := New(rec, Config{Workers: 2, QueueDepth: 2, StreamWindow: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	var pool raster.Pool
	st, err := p.NewProcStream(func(sc *recognizer.Scratch, seq uint64, frame *raster.Gray) (recognizer.Result, error) {
		return recognizer.Result{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	st.SetDropHook(pool.Put)

	// Submit a full window of pooled frames and never read a single result.
	const n = 4
	for i := 0; i < n; i++ {
		if err := st.Submit(pool.Get(8, 8)); err != nil {
			t.Fatal(err)
		}
	}
	st.Abandon()
	deadline := time.Now().Add(10 * time.Second)
	for {
		gets, puts := pool.Stats()
		if gets == n && puts == n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("abandoned stream leaked frames: %d gets, %d puts", gets, puts)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestProcStreamOrdering checks a custom per-frame stage sees every frame
// with its stream sequence number and that delivery order still holds.
func TestProcStreamOrdering(t *testing.T) {
	rec, _ := newRecognizer(t)
	p, err := New(rec, Config{Workers: 4, QueueDepth: 4, StreamWindow: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	const n = 32
	seen := make([]uint8, n) // indexed by seq, written by workers pre-delivery
	st, err := p.NewProcStream(func(sc *recognizer.Scratch, seq uint64, frame *raster.Gray) (recognizer.Result, error) {
		if sc == nil || sc.Vision() == nil {
			return recognizer.Result{}, errors.New("no scratch")
		}
		seen[seq] = frame.Pix[0]
		return recognizer.Result{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		defer st.Close()
		for i := 0; i < n; i++ {
			g, _ := raster.NewGray(4, 4)
			g.Pix[0] = uint8(i)
			if err := st.Submit(g); err != nil {
				return
			}
		}
	}()
	next := uint64(0)
	for r := range st.Results() {
		if r.Seq != next {
			t.Fatalf("out of order: got %d, want %d", r.Seq, next)
		}
		if r.Err != nil {
			t.Fatalf("seq %d: %v", r.Seq, r.Err)
		}
		// The worker's write to seen[seq] happens before this delivery.
		if seen[r.Seq] != uint8(r.Seq) {
			t.Fatalf("proc saw frame %d at seq %d", seen[r.Seq], r.Seq)
		}
		next++
	}
	if next != n {
		t.Fatalf("delivered %d/%d", next, n)
	}
	if _, err := p.NewProcStream(nil); err == nil {
		t.Fatal("nil proc accepted")
	}
}

// TestBatchRejectsNilFrame pins the up-front validation: a nil frame fails
// the whole batch explicitly instead of surfacing as ErrClosed mid-way.
func TestBatchRejectsNilFrame(t *testing.T) {
	rec, rend := newRecognizer(t)
	frames, _ := renderSigns(t, rend, 2)
	p, err := New(rec, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, _, err := p.RecognizeBatch([]*raster.Gray{frames[0], nil, frames[1]}); !errors.Is(err, ErrNilFrame) {
		t.Fatalf("nil frame in batch: %v", err)
	}
}

// TestEmptyBatch covers the zero-length fast path.
func TestEmptyBatch(t *testing.T) {
	rec, _ := newRecognizer(t)
	p, err := New(rec, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	results, errs, err := p.RecognizeBatch(nil)
	if err != nil || len(results) != 0 || len(errs) != 0 {
		t.Fatalf("empty batch: %v %v %v", results, errs, err)
	}
}

// RecognizeBatch recognises frames in input order on a private stream, with
// one error slot per frame.
func (p *Pipeline) RecognizeBatch(frames []*raster.Gray) ([]recognizer.Result, []error, error) {
	return recognizeBatchContext(context.Background(), p.NewStream, frames, nil)
}

// RecognizeBatchContext is RecognizeBatch under ctx with frame recycling, as
// Owner.RecognizeBatchContext serves it.
func (p *Pipeline) RecognizeBatchContext(ctx context.Context, frames []*raster.Gray, recycle func(*raster.Gray)) ([]recognizer.Result, []error, error) {
	return recognizeBatchContext(ctx, p.NewStream, frames, recycle)
}

// RecognizeBatch is Pipeline.RecognizeBatch on a stream attributed to o.
func (o *Owner) RecognizeBatch(frames []*raster.Gray) ([]recognizer.Result, []error, error) {
	return o.RecognizeBatchContext(context.Background(), frames, nil)
}
