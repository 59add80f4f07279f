package nodes

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"hdc/internal/body"
	"hdc/internal/gesture"
	"hdc/internal/graph"
	"hdc/internal/pipeline"
	"hdc/internal/raster"
	"hdc/internal/recognizer"
	"hdc/internal/sax"
	"hdc/internal/scene"
	"hdc/internal/timeseries"
	"hdc/internal/vision"
)

// diff_test.go pins the graph-served vision paths byte-identical to their
// references: the recognition graph against the pool's default stream, and
// the gesture graph against a serial, pool-free oracle. Inputs are
// randomised with a logged seed, and float fields are compared down to
// their Float64bits — any divergence between the two code paths, however
// small, is a failure.

// newSeededRNG logs the run's seed so a differential failure reproduces.
func newSeededRNG(t *testing.T) *rand.Rand {
	t.Helper()
	seed := time.Now().UnixNano()
	t.Logf("differential seed: %d", seed)
	return rand.New(rand.NewSource(seed))
}

// sameBits reports bit-identity of two floats (NaNs of equal pattern
// included — the point is "same code path", not numeric closeness).
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

// sameMatch compares every sax.Match field, distances at bit level.
func sameMatch(a, b sax.Match) bool {
	return a.Label == b.Label && a.Word == b.Word && a.Shift == b.Shift &&
		a.Mirrored == b.Mirrored && sameBits(a.Dist, b.Dist) && sameBits(a.WordDist, b.WordDist)
}

// checkSameResult fails the test unless a and b are byte-identical on every
// field except Timings (wall-clock, legitimately differs between runs).
func checkSameResult(t *testing.T, i int, a, b recognizer.Result) {
	t.Helper()
	if a.OK != b.OK || a.Sign != b.Sign || a.Label != b.Label || a.Area != b.Area {
		t.Fatalf("frame %d: identity fields diverge:\nstream: %+v\ngraph:  %+v", i, a, b)
	}
	if !sameMatch(a.Match, b.Match) || !sameMatch(a.RunnerUp, b.RunnerUp) {
		t.Fatalf("frame %d: matches diverge:\nstream: %+v / %+v\ngraph:  %+v / %+v",
			i, a.Match, a.RunnerUp, b.Match, b.RunnerUp)
	}
	if !sameBits(a.Margin, b.Margin) || !sameBits(a.Confidence, b.Confidence) {
		t.Fatalf("frame %d: margin/confidence diverge: (%x,%x) vs (%x,%x)", i,
			math.Float64bits(a.Margin), math.Float64bits(a.Confidence),
			math.Float64bits(b.Margin), math.Float64bits(b.Confidence))
	}
	if len(a.Signature) != len(b.Signature) {
		t.Fatalf("frame %d: signature lengths %d vs %d", i, len(a.Signature), len(b.Signature))
	}
	for j := range a.Signature {
		if !sameBits(a.Signature[j], b.Signature[j]) {
			t.Fatalf("frame %d: signature[%d] %x vs %x", i, j,
				math.Float64bits(a.Signature[j]), math.Float64bits(b.Signature[j]))
		}
	}
}

// checkSameError fails unless both paths failed identically (or neither
// did): same nil-ness, same message, same ErrNoSign classification.
func checkSameError(t *testing.T, i int, a, b error) {
	t.Helper()
	if (a == nil) != (b == nil) {
		t.Fatalf("frame %d: error parity broken: stream %v, graph %v", i, a, b)
	}
	if a == nil {
		return
	}
	if a.Error() != b.Error() || errors.Is(a, recognizer.ErrNoSign) != errors.Is(b, recognizer.ErrNoSign) {
		t.Fatalf("frame %d: errors diverge: stream %q, graph %q", i, a, b)
	}
}

// renderRandomFrames renders n frames: random signs at random azimuths in
// the calibrated range, with every seventh frame blank so the ErrNoSign
// path stays under differential coverage too.
func renderRandomFrames(t *testing.T, rend *scene.Renderer, rng *rand.Rand, n int) []*raster.Gray {
	t.Helper()
	signs := body.AllSigns()
	frames := make([]*raster.Gray, n)
	for i := range frames {
		if i%7 == 6 {
			f, err := raster.NewGray(128, 128)
			if err != nil {
				t.Fatal(err)
			}
			frames[i] = f
			continue
		}
		v := scene.ReferenceView()
		v.AzimuthDeg = rng.Float64() * 30
		f, err := rend.Render(signs[rng.Intn(len(signs))], v, body.Options{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		frames[i] = f
	}
	return frames
}

// TestGraphRecognitionMatchesStreamPath is the recognition differential:
// the same frames through the pool's default stream and through the
// recognition graph on the same pool must produce byte-identical Results
// and identical errors, frame for frame.
func TestGraphRecognitionMatchesStreamPath(t *testing.T) {
	rng := newSeededRNG(t)
	rec, rend := newRecognizer(t)
	p, err := pipeline.New(rec, pipeline.Config{Workers: 4, QueueDepth: 8, StreamWindow: 6})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	const N = 28
	frames := renderRandomFrames(t, rend, rng, N)

	// Legacy path: the pool's default recognition stream.
	st, err := p.NewStream()
	if err != nil {
		t.Fatal(err)
	}
	want := make([]pipeline.StreamResult, 0, N)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for r := range st.Results() {
			want = append(want, r)
		}
	}()
	for i, f := range frames {
		if err := st.Submit(f); err != nil {
			t.Errorf("stream submit %d: %v", i, err)
			break
		}
	}
	st.Close()
	<-done
	if len(want) != N {
		t.Fatalf("stream path delivered %d of %d results", len(want), N)
	}

	// Graph path: the same frames through the recognition topology on the
	// same pool. Streams do not consume frames, so reuse is safe; Process
	// takes ownership but these frames are unpooled (no Recycle hook).
	g, err := graph.Build(RecognizeSpec(rec), p, graph.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	in := make([]graph.Input, N)
	for i, f := range frames {
		in[i] = graph.Input{Frame: f}
	}
	out, err := g.Process(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}

	for i := range out {
		checkSameError(t, i, want[i].Err, out[i].Err)
		checkSameResult(t, i, want[i].Res, out[i].Value.(recognizer.Result))
	}
}

// classifyGestureSerial is the gesture window's reference: ExtractFrame on
// a fresh vision.Scratch per frame, in frame order, then Classify — all on
// the calling goroutine, with no pool. A sub-cycle window is refused with
// the error ClassifyGestureWindow promises.
func classifyGestureSerial(r *gesture.Recognizer, frames []*raster.Gray) (gesture.Match, error) {
	if len(frames) < r.MinWindow() {
		return gesture.Match{}, fmt.Errorf("%w: %d frames, need %d", gesture.ErrShortWindow, len(frames), r.MinWindow())
	}
	cenX := make(timeseries.Series, len(frames))
	aspect := make(timeseries.Series, len(frames))
	for i, f := range frames {
		feat, err := gesture.ExtractFrame(vision.NewScratch(), f)
		if err != nil {
			return gesture.Match{}, err
		}
		cenX[i] = feat.CenX
		aspect[i] = feat.Aspect
	}
	return r.Classify(cenX, aspect)
}

// TestGraphGestureMatchesSerialOracle is the gesture differential: a
// rendered observation window classified by the serial oracle and by
// ClassifyGestureWindow over the gesture graph must agree to the bit on the
// match, for every gesture at a random phase.
func TestGraphGestureMatchesSerialOracle(t *testing.T) {
	rng := newSeededRNG(t)
	rend := scene.NewRenderer(scene.Config{})
	r, err := gesture.NewRecognizer(gesture.Config{}, rend, scene.ReferenceView())
	if err != nil {
		t.Fatal(err)
	}
	p := newTestPool(t)
	g, err := buildSpec(t, GestureSpec(), p)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	for _, gest := range gesture.Gestures() {
		phase0 := rng.Float64()
		frames := renderGestureWindow(t, rend, r, gest, phase0, r.MinWindow()+rng.Intn(r.MinWindow()))

		want, wantErr := classifyGestureSerial(r, frames)
		got, gotErr := ClassifyGestureWindow(context.Background(), g, r, frames, nil)
		if (wantErr == nil) != (gotErr == nil) ||
			(wantErr != nil && wantErr.Error() != gotErr.Error()) {
			t.Fatalf("%v phase %v: error parity broken: serial %v, graph %v", gest, phase0, wantErr, gotErr)
		}
		if want.Gesture != got.Gesture || want.Shift != got.Shift || !sameBits(want.Dist, got.Dist) {
			t.Fatalf("%v phase %v: matches diverge: serial %+v, graph %+v", gest, phase0, want, got)
		}
	}

	// Short-window parity: both paths refuse with the same wrapped error.
	short := make([]*raster.Gray, r.MinWindow()-1)
	for i := range short {
		f, err := raster.NewGray(64, 64)
		if err != nil {
			t.Fatal(err)
		}
		short[i] = f
	}
	_, wantErr := classifyGestureSerial(r, short)
	_, gotErr := ClassifyGestureWindow(context.Background(), g, r, short, nil)
	if !errors.Is(wantErr, gesture.ErrShortWindow) || !errors.Is(gotErr, gesture.ErrShortWindow) ||
		wantErr.Error() != gotErr.Error() {
		t.Fatalf("short window: serial %v, graph %v", wantErr, gotErr)
	}
}
