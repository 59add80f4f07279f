package gesture

import (
	"errors"
	"math/rand"
	"testing"

	"hdc/internal/body"
	"hdc/internal/pipeline"
	"hdc/internal/raster"
	"hdc/internal/recognizer"
	"hdc/internal/scene"
)

// newPool builds a worker pool for proc streams (the sign recogniser behind
// it is never invoked by gesture stages, so it needs no references).
func newPool(t testing.TB, cfg pipeline.Config) *pipeline.Pipeline {
	t.Helper()
	rec, err := recognizer.New(recognizer.Config{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := pipeline.New(rec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p
}

// renderWindow renders one observation window of g starting at phase0.
func renderWindow(t testing.TB, r *Recognizer, g Gesture, phase0 float64,
	opts body.Options, rng *rand.Rand, frames int) []*raster.Gray {
	t.Helper()
	rend := scene.NewRenderer(scene.Config{})
	out := make([]*raster.Gray, frames)
	for i := range out {
		phase := phase0 + float64(i)/float64(r.cfg.FramesPerCycle)
		fig, err := FigureAt(g, phase, opts)
		if err != nil {
			t.Fatal(err)
		}
		f, err := rend.RenderFigure(fig, scene.ReferenceView(), rng)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = f
	}
	return out
}

// TestLiveSessionClassifiesFeed feeds two gesture cycles through a live
// session sized to drop nothing and expects sliding-window matches.
func TestLiveSessionClassifiesFeed(t *testing.T) {
	rend := scene.NewRenderer(scene.Config{})
	r, err := NewRecognizer(Config{}, rend, scene.ReferenceView())
	if err != nil {
		t.Fatal(err)
	}
	p := newPool(t, pipeline.Config{Workers: 4, QueueDepth: 4, StreamWindow: 6})

	var pool raster.Pool
	rng := rand.New(rand.NewSource(5))
	for _, g := range []Gesture{GestureWave, GestureSeesaw} {
		phase0 := rng.Float64()
		l, err := r.NewLive(p, LiveConfig{
			Buffer:  4 * r.cfg.FramesPerCycle, // larger than the feed: no drops
			OnFrame: pool.Put,
		})
		if err != nil {
			t.Fatal(err)
		}
		src := renderWindow(t, r, g, phase0, body.Options{}, nil, 2*r.cfg.FramesPerCycle)
		for _, f := range src {
			// Copy into pooled frames: the session owns what it is offered.
			g8 := pool.Get(f.W, f.H)
			copy(g8.Pix, f.Pix)
			if err := l.Offer(g8); err != nil {
				t.Fatal(err)
			}
		}
		done := make(chan struct{})
		var matches []WindowMatch
		go func() {
			defer close(done)
			for m := range l.Matches() {
				matches = append(matches, m)
			}
		}()
		l.Close()
		<-done

		st := l.Stats()
		if st.Dropped != 0 {
			t.Fatalf("%v: %d drops from an oversized ring", g, st.Dropped)
		}
		if st.Frames != uint64(len(src)) {
			t.Fatalf("%v: processed %d of %d frames", g, st.Frames, len(src))
		}
		if len(matches) == 0 {
			t.Fatalf("%v: no windows classified", g)
		}
		accepted := 0
		for _, m := range matches {
			if m.Err == nil && m.Match.Gesture == g {
				accepted++
			} else if m.Err != nil && !errors.Is(m.Err, ErrNoGesture) {
				t.Fatalf("%v: window error %v", g, m.Err)
			}
		}
		if accepted == 0 {
			t.Fatalf("%v: no window matched (of %d)", g, len(matches))
		}
		// Every pooled frame came back exactly once.
		gets, puts := pool.Stats()
		if gets != puts {
			t.Fatalf("%v: %d gets vs %d puts — session leaked frames", g, gets, puts)
		}
	}
}

// TestLiveSessionShedsUnderOverload wedges a one-worker pool and floods a
// small ring: Offer must keep succeeding, the overflow must show up as
// drops, and every frame must be recycled exactly once (processed or shed).
func TestLiveSessionShedsUnderOverload(t *testing.T) {
	rend := scene.NewRenderer(scene.Config{})
	r, err := NewRecognizer(Config{}, rend, scene.ReferenceView())
	if err != nil {
		t.Fatal(err)
	}
	p := newPool(t, pipeline.Config{Workers: 1, QueueDepth: 1, StreamWindow: 2})

	var pool raster.Pool
	l, err := r.NewLive(p, LiveConfig{Buffer: 4, OnFrame: pool.Put})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for range l.Matches() {
		}
	}()

	src := renderWindow(t, r, GesturePump, 0, body.Options{}, nil, r.cfg.FramesPerCycle)
	const rounds = 12
	for i := 0; i < rounds; i++ {
		for _, f := range src {
			g8 := pool.Get(f.W, f.H)
			copy(g8.Pix, f.Pix)
			if err := l.Offer(g8); err != nil {
				t.Fatal(err)
			}
		}
	}
	l.Close()

	st := l.Stats()
	offered := uint64(rounds * len(src))
	if st.Accepted != offered {
		t.Fatalf("accepted %d, want %d", st.Accepted, offered)
	}
	if st.Dropped == 0 {
		t.Fatal("no drops from a flooded one-worker pool")
	}
	if st.Frames+st.BadFrames+st.Dropped != offered {
		t.Fatalf("accounting: %d processed + %d bad + %d dropped != %d offered",
			st.Frames, st.BadFrames, st.Dropped, offered)
	}
	gets, puts := pool.Stats()
	if gets != puts {
		t.Fatalf("%d gets vs %d puts — overloaded session leaked frames", gets, puts)
	}
}
