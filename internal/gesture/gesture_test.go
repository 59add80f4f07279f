package gesture

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"hdc/internal/body"
	"hdc/internal/scene"
	"hdc/internal/timeseries"
	"hdc/internal/vision"
)

func newRecognizer(t testing.TB) *Recognizer {
	t.Helper()
	rend := scene.NewRenderer(scene.Config{})
	r, err := NewRecognizer(Config{}, rend, scene.ReferenceView())
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestGestureStringsAndValidity(t *testing.T) {
	for _, g := range Gestures() {
		if !g.Valid() || g.String() == "" {
			t.Fatalf("gesture %d broken", int(g))
		}
	}
	if Gesture(0).Valid() {
		t.Fatal("zero gesture should be invalid")
	}
	if Gesture(99).String() == "" {
		t.Fatal("unknown gesture string empty")
	}
}

func TestFigureAtCyclesSmoothly(t *testing.T) {
	// The wave's wrist must move laterally across the cycle and return.
	wrist := func(phase float64) float64 {
		f, err := FigureAt(GestureWave, phase, body.Options{})
		if err != nil {
			t.Fatal(err)
		}
		// lateral position of the right hand: last capsule endpoint.
		return f.Capsules[len(f.Capsules)-1].B.X
	}
	x0 := wrist(0)
	x25 := wrist(0.25)
	x75 := wrist(0.75)
	x1 := wrist(1.0)
	if math.Abs(x0-x1) > 1e-9 {
		t.Fatal("cycle must close")
	}
	if math.Abs(x25-x75) < 0.05 {
		t.Fatalf("wave has no lateral swing: %v vs %v", x25, x75)
	}
	// Phase outside [0,1) is wrapped.
	if math.Abs(wrist(1.25)-x25) > 1e-9 {
		t.Fatal("phase wrapping broken")
	}
}

func TestFigureAtInvalid(t *testing.T) {
	if _, err := FigureAt(Gesture(0), 0, body.Options{}); err == nil {
		t.Fatal("invalid gesture should fail")
	}
}

func TestExtractFeaturesOnFrame(t *testing.T) {
	rend := scene.NewRenderer(scene.Config{})
	fig, err := FigureAt(GestureWave, 0.25, body.Options{})
	if err != nil {
		t.Fatal(err)
	}
	frame, err := rend.RenderFigure(fig, scene.ReferenceView(), nil)
	if err != nil {
		t.Fatal(err)
	}
	mask := vision.OtsuBinarize(frame)
	f, err := ExtractFeatures(mask)
	if err != nil {
		t.Fatal(err)
	}
	if f.CenX < -1.2 || f.CenX > 1.2 {
		t.Fatalf("CenX %v out of range", f.CenX)
	}
	if f.Aspect <= 0 || f.Aspect > 5 {
		t.Fatalf("Aspect %v out of range", f.Aspect)
	}
	// Empty mask fails.
	if _, err := ExtractFeatures(vision.NewBinary(8, 8)); err == nil {
		t.Fatal("empty mask should fail")
	}
}

func TestRecognizerSelfClassification(t *testing.T) {
	r := newRecognizer(t)
	for _, g := range Gestures() {
		m, err := r.Observe(g, scene.ReferenceView(), 0, body.Options{}, nil)
		if err != nil {
			t.Fatalf("%v: %v", g, err)
		}
		if m.Gesture != g {
			t.Fatalf("%v classified as %v (dist %.2f)", g, m.Gesture, m.Dist)
		}
	}
}

func TestRecognizerPhaseInvariance(t *testing.T) {
	// The capture can start anywhere in the gesture cycle.
	r := newRecognizer(t)
	for _, phase0 := range []float64{0.1, 0.33, 0.5, 0.77} {
		for _, g := range Gestures() {
			m, err := r.Observe(g, scene.ReferenceView(), phase0, body.Options{}, nil)
			if err != nil {
				t.Fatalf("%v @ phase %v: %v", g, phase0, err)
			}
			if m.Gesture != g {
				t.Fatalf("%v @ phase %v → %v", g, phase0, m.Gesture)
			}
		}
	}
}

func TestRecognizerUnderJitterAndNoise(t *testing.T) {
	r := newRecognizer(t)
	rng := rand.New(rand.NewSource(3))
	hits, trials := 0, 0
	for _, g := range Gestures() {
		for k := 0; k < 4; k++ {
			m, err := r.Observe(g, scene.ReferenceView(), rng.Float64(),
				body.Options{ArmJitterDeg: rng.NormFloat64() * 3}, rng)
			trials++
			if err == nil && m.Gesture == g {
				hits++
			}
		}
	}
	if hits < trials*3/4 {
		t.Fatalf("noisy gesture recognition %d/%d below 75%%", hits, trials)
	}
}

func TestRecognizerModerateAzimuth(t *testing.T) {
	// Dynamic signals should tolerate off-axis viewing at least as far as
	// the static signs do (the temporal channels survive foreshortening).
	r := newRecognizer(t)
	v := scene.View{AltitudeM: 5, DistanceM: 3, AzimuthDeg: 40}
	for _, g := range []Gesture{GestureWave, GesturePump} {
		m, err := r.Observe(g, v, 0.2, body.Options{}, nil)
		if err != nil {
			t.Fatalf("%v @ 40°: %v", g, err)
		}
		if m.Gesture != g {
			t.Fatalf("%v @ 40° → %v (dist %.2f)", g, m.Gesture, m.Dist)
		}
	}
}

func TestFeaturesFromSinglePixelComponent(t *testing.T) {
	// Component bounds are inclusive: a one-pixel silhouette spans 1×1, not
	// 0×0. The old exclusive subtraction rejected it as degenerate (and
	// biased every aspect ratio one pixel short).
	mask := vision.NewBinary(8, 8)
	mask.Pix[4*mask.W+3] = 1
	f, err := ExtractFeatures(mask)
	if err != nil {
		t.Fatalf("single-pixel silhouette rejected: %v", err)
	}
	if f.Aspect != 1 {
		t.Fatalf("1×1 component aspect %v, want 1", f.Aspect)
	}
	if f.CenX != 0 {
		t.Fatalf("1×1 component CenX %v, want 0", f.CenX)
	}
	// A one-column, three-row bar: width 1, height 3.
	mask2 := vision.NewBinary(8, 8)
	for y := 2; y <= 4; y++ {
		mask2.Pix[y*mask2.W+5] = 1
	}
	f2, err := ExtractFeatures(mask2)
	if err != nil {
		t.Fatal(err)
	}
	if want := 1.0 / 3.0; math.Abs(f2.Aspect-want) > 1e-12 {
		t.Fatalf("1×3 bar aspect %v, want %v", f2.Aspect, want)
	}
	// Degenerate (empty) components still fail.
	if _, err := FeaturesFromComponent(vision.Component{}); err == nil {
		t.Fatal("empty component accepted")
	}
}

func TestClassifyPropagatesDistanceErrors(t *testing.T) {
	// Regression for the swallowed-error branch: with no shared active
	// channel, EuclideanDist errors were discarded and a stale nil err let a
	// length-mismatched template score a silent, perfect 0. Inject a corrupt
	// cache entry (mismatched series lengths, inactive template channels so
	// the zero-shift branch runs) and demand the error surfaces.
	r := newRecognizer(t)
	n := 24
	bad := normTemplate{
		g:  GestureWave,
		tx: make(timeseries.Series, n-3), // wrong length
		ty: make(timeseries.Series, n-3),
		// Stds below the activity floor force the zero-shift branch.
	}
	r.ntMu.Lock()
	if r.ntCache == nil {
		r.ntCache = make(map[int][]normTemplate)
	}
	r.ntCache[n] = []normTemplate{bad}
	r.ntMu.Unlock()

	active := make(timeseries.Series, n)
	flat := make(timeseries.Series, n)
	for i := range active {
		active[i] = math.Sin(2 * math.Pi * float64(i) / float64(n))
	}
	m, err := r.Classify(active, flat)
	if err == nil {
		t.Fatalf("mismatched template lengths produced a match: %+v", m)
	}
	if !errors.Is(err, timeseries.ErrLengthMismatch) {
		t.Fatalf("got %v, want ErrLengthMismatch", err)
	}
}

func TestAlignedDistNegativeAnchor(t *testing.T) {
	// alignedDist must wrap negative shifts exactly like Series.Rotate with
	// negative k; pin it against the Rotate-based reference.
	rng := rand.New(rand.NewSource(7))
	n := 24
	a := make(timeseries.Series, n)
	b := make(timeseries.Series, n)
	for i := range a {
		a[i] = rng.NormFloat64()
		b[i] = rng.NormFloat64()
	}
	for _, anchor := range []int{-1, -5, -n, -n - 3, 0, 3} {
		got, err := alignedDist(a, b, anchor, 2)
		if err != nil {
			t.Fatal(err)
		}
		want := math.Inf(1)
		for s := anchor - 2; s <= anchor+2; s++ {
			d, err := timeseries.EuclideanDist(a, b.Rotate(s))
			if err != nil {
				t.Fatal(err)
			}
			want = math.Min(want, d)
		}
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("anchor %d: alignedDist %v, Rotate reference %v", anchor, got, want)
		}
	}
	if _, err := alignedDist(a, b[:n-1], -3, 2); err == nil {
		t.Fatal("mismatched lengths accepted")
	}
}

func TestClassifyWithReusedScratchMatchesClassify(t *testing.T) {
	r := newRecognizer(t)
	cs := &ClassifyScratch{}
	for _, g := range Gestures() {
		topX, topY, err := r.featureSeries(g, scene.ReferenceView(), 0, body.Options{}, nil, r.cfg.FramesPerCycle, 1)
		if err != nil {
			t.Fatal(err)
		}
		want, werr := r.Classify(topX, topY)
		got, gerr := r.ClassifyWith(cs, topX, topY)
		if (werr == nil) != (gerr == nil) || got != want {
			t.Fatalf("%v: scratch path (%+v, %v) != fresh path (%+v, %v)", g, got, gerr, want, werr)
		}
		if want.Gesture != g {
			t.Fatalf("%v classified as %v", g, want.Gesture)
		}
	}
}

func TestClassifyValidation(t *testing.T) {
	r := newRecognizer(t)
	if _, err := r.Classify(nil, nil); err == nil {
		t.Fatal("empty series should fail")
	}
	if _, err := r.Classify(make([]float64, 4), make([]float64, 5)); err == nil {
		t.Fatal("mismatched series should fail")
	}
}

func TestStaticPoseRejected(t *testing.T) {
	// A static sign held still produces flat feature series — no gesture
	// should be accepted.
	r := newRecognizer(t)
	rend := scene.NewRenderer(scene.Config{})
	n := 24
	topX := make([]float64, 0, n)
	topY := make([]float64, 0, n)
	fig, err := body.NewFigure(body.SignAttention, body.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		frame, err := rend.RenderFigure(fig, scene.ReferenceView(), nil)
		if err != nil {
			t.Fatal(err)
		}
		f, err := ExtractFeatures(vision.OtsuBinarize(frame))
		if err != nil {
			t.Fatal(err)
		}
		topX = append(topX, f.CenX)
		topY = append(topY, f.Aspect)
	}
	if _, err := r.Classify(topX, topY); err == nil {
		t.Fatal("static pose accepted as a gesture")
	}
}

// ExtractFeatures computes the per-frame features of a binarised frame's
// largest component.
func ExtractFeatures(mask *vision.Binary) (Features, error) {
	_, comp, err := vision.NewScratch().LargestComponent(mask)
	if err != nil {
		return Features{}, err
	}
	return FeaturesFromComponent(comp)
}
