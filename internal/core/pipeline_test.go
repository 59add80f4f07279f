package core

import (
	"context"
	"errors"
	"testing"

	"hdc/internal/body"
	"hdc/internal/pipeline"
	"hdc/internal/raster"
	"hdc/internal/recognizer"
	"hdc/internal/scene"
)

// TestSystemStreamingRoundTrip drives the façade-level streaming API: a
// stream and a batch through the system's shared pool.
func TestSystemStreamingRoundTrip(t *testing.T) {
	sys, err := NewSystem(WithSceneConfig(scene.Config{Width: 128, Height: 128}),
		WithPipelineConfig(pipeline.Config{Workers: 2}))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	frames := make([]*raster.Gray, 4)
	for i := range frames {
		v := scene.View{AltitudeM: 5, DistanceM: 3, AzimuthDeg: float64(i * 10)}
		f, err := sys.Rend.Render(body.SignYes, v, body.Options{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		frames[i] = f
	}

	st, err := sys.NewStream()
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range frames {
		if err := st.Submit(f); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()
	n := uint64(0)
	for r := range st.Results() {
		if r.Seq != n {
			t.Fatalf("stream out of order: %d, want %d", r.Seq, n)
		}
		n++
	}
	if n != uint64(len(frames)) {
		t.Fatalf("stream delivered %d/%d", n, len(frames))
	}

	results, errs, err := sys.RecognizeBatch(frames)
	if err != nil {
		t.Fatal(err)
	}
	for i := range frames {
		if errs[i] == nil && !results[i].OK {
			t.Fatalf("frame %d: nil error but not OK", i)
		}
	}
}

// TestSystemCloseBeforeUse pins the shutdown contract: closing a system
// that never streamed must make later streaming calls fail cleanly rather
// than start (or dereference) a pool on a closed system.
func TestSystemCloseBeforeUse(t *testing.T) {
	sys, err := NewSystem(WithSceneConfig(scene.Config{Width: 128, Height: 128}))
	if err != nil {
		t.Fatal(err)
	}
	sys.Close()
	if _, err := sys.NewStream(); !errors.Is(err, pipeline.ErrClosed) {
		t.Fatalf("NewStream after early Close: %v", err)
	}
	if _, _, err := sys.RecognizeBatch(nil); !errors.Is(err, pipeline.ErrClosed) {
		t.Fatalf("RecognizeBatch after early Close: %v", err)
	}
	sys.Close() // still idempotent
}

// RecognizeBatch is RecognizeBatchContext without a deadline or recycling.
func (s *System) RecognizeBatch(frames []*raster.Gray) ([]recognizer.Result, []error, error) {
	return s.RecognizeBatchContext(context.Background(), frames, nil)
}
