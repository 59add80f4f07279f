package scene

import (
	"math"
	"math/rand"
	"testing"

	"hdc/internal/body"
	"hdc/internal/geom"
	"hdc/internal/vision"
)

// foreground counts a mask's foreground pixels.
func foreground(b *vision.Binary) int {
	n := 0
	for _, p := range b.Pix {
		if p != 0 {
			n++
		}
	}
	return n
}

// geomV3 is a local alias to keep the bystander test terse.
func geomV3(x, y, z float64) geom.Vec3 { return geom.V3(x, y, z) }

func TestViewValidate(t *testing.T) {
	tests := []struct {
		name string
		v    View
		ok   bool
	}{
		{"reference", ReferenceView(), true},
		{"low alt", View{AltitudeM: 0.05, DistanceM: 3}, false},
		{"absurd alt", View{AltitudeM: 500, DistanceM: 3}, false},
		{"too close", View{AltitudeM: 5, DistanceM: 0.1}, false},
		{"far", View{AltitudeM: 5, DistanceM: 100}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.v.Validate()
			if tt.ok && err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if !tt.ok && err == nil {
				t.Fatal("expected error")
			}
		})
	}
}

func TestRenderProducesSilhouette(t *testing.T) {
	r := NewRenderer(Config{})
	img, err := r.Render(body.SignYes, ReferenceView(), body.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if img.W != 256 || img.H != 256 {
		t.Fatalf("frame %dx%d", img.W, img.H)
	}
	mask := vision.OtsuBinarize(img)
	area := foreground(mask)
	if area < 500 {
		t.Fatalf("silhouette too small: %d px", area)
	}
	if area > img.W*img.H/3 {
		t.Fatalf("silhouette implausibly large: %d px", area)
	}
}

func TestRenderInvalidInputs(t *testing.T) {
	r := NewRenderer(Config{})
	if _, err := r.Render(body.Sign(0), ReferenceView(), body.Options{}, nil); err == nil {
		t.Fatal("invalid sign should fail")
	}
	if _, err := r.Render(body.SignYes, View{}, body.Options{}, nil); err == nil {
		t.Fatal("invalid view should fail")
	}
}

func TestRenderDeterministicWithoutRng(t *testing.T) {
	r := NewRenderer(Config{})
	a, err := r.Render(body.SignNo, ReferenceView(), body.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Render(body.SignNo, ReferenceView(), body.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Pix {
		if a.Pix[i] != b.Pix[i] {
			t.Fatal("noise-free rendering must be deterministic")
		}
	}
}

func TestRenderSeededReproducibility(t *testing.T) {
	r := NewRenderer(Config{NoiseSigma: 6, Clutter: 5})
	a, err := r.Render(body.SignNo, ReferenceView(), body.Options{}, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Render(body.SignNo, ReferenceView(), body.Options{}, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Pix {
		if a.Pix[i] != b.Pix[i] {
			t.Fatal("same seed must reproduce the frame")
		}
	}
}

func TestSilhouetteShrinksWithDistance(t *testing.T) {
	r := NewRenderer(Config{})
	area := func(v View) int {
		img, err := r.Render(body.SignIdle, v, body.Options{}, nil)
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		return foreground(vision.OtsuBinarize(img))
	}
	near := area(View{AltitudeM: 3, DistanceM: 3})
	far := area(View{AltitudeM: 3, DistanceM: 9})
	if near <= far {
		t.Fatalf("near silhouette (%d) should exceed far (%d)", near, far)
	}
	// Roughly inverse-square: 3× distance → ≈9× smaller, allow slack.
	ratio := float64(near) / float64(far)
	if ratio < 4 || ratio > 16 {
		t.Fatalf("area ratio %v outside inverse-square ballpark", ratio)
	}
}

func TestForeshorteningNarrowsSilhouette(t *testing.T) {
	// The paper's dead-angle mechanism: at high relative azimuth the
	// signaller's lateral extent collapses.
	r := NewRenderer(Config{})
	width := func(azDeg float64) int {
		img, err := r.Render(body.SignYes, View{AltitudeM: 5, DistanceM: 3, AzimuthDeg: azDeg}, body.Options{}, nil)
		if err != nil {
			t.Fatalf("az %v: %v", azDeg, err)
		}
		mask := vision.OtsuBinarize(img)
		_, comp, err := vision.NewScratch().LargestComponent(mask)
		if err != nil {
			t.Fatal(err)
		}
		return comp.MaxX - comp.MinX
	}
	w0 := width(0)
	w65 := width(65)
	w90 := width(90)
	if !(w0 > w65 && w65 > w90) {
		t.Fatalf("foreshortening violated: w0=%d w65=%d w90=%d", w0, w65, w90)
	}
	if float64(w90) > 0.6*float64(w0) {
		t.Fatalf("side view too wide: %d vs %d", w90, w0)
	}
}

func TestMirrorViewFromBehind(t *testing.T) {
	// At 180° the silhouette is the mirror of the frontal one: for the
	// asymmetric No sign, the raised-arm side flips.
	r := NewRenderer(Config{})
	centroidSide := func(azDeg float64) float64 {
		img, err := r.Render(body.SignNo, View{AltitudeM: 5, DistanceM: 3, AzimuthDeg: azDeg}, body.Options{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		mask := vision.OtsuBinarize(img)
		_, comp, err := vision.NewScratch().LargestComponent(mask)
		if err != nil {
			t.Fatal(err)
		}
		// Signed offset of the blob centroid from the bbox centre: the
		// raised arm pulls it to one side.
		return comp.CenX - float64(comp.MinX+comp.MaxX)/2
	}
	front := centroidSide(0)
	back := centroidSide(180)
	if front*back >= 0 {
		t.Fatalf("mirrored view should flip the arm side: front=%v back=%v", front, back)
	}
}

func TestCleanFrameBimodal(t *testing.T) {
	r := NewRenderer(Config{BlurRadius: -1}) // negative → skip blur branch? ensure handled
	img, err := r.Render(body.SignAttention, ReferenceView(), body.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// With no blur/noise the frame holds (near-)binary intensities.
	hist := img.Histogram()
	nonzeroBins := 0
	for _, c := range hist {
		if c > 0 {
			nonzeroBins++
		}
	}
	if nonzeroBins > 4 {
		t.Fatalf("clean frame has %d intensity bins, want ≤4", nonzeroBins)
	}
}

func TestClutterDoesNotDefeatLargestComponent(t *testing.T) {
	r := NewRenderer(Config{Clutter: 8})
	rng := rand.New(rand.NewSource(4))
	img, err := r.Render(body.SignYes, ReferenceView(), body.Options{}, rng)
	if err != nil {
		t.Fatal(err)
	}
	mask := vision.OtsuBinarize(img)
	mask = vision.Open(mask, 1)
	_, comp, err := vision.NewScratch().LargestComponent(mask)
	if err != nil {
		t.Fatal(err)
	}
	// The signaller spans most of the frame height at the reference view;
	// clutter blobs are small discs.
	if comp.MaxY-comp.MinY < img.H/4 {
		t.Fatalf("largest component too short (%d px) — clutter won?", comp.MaxY-comp.MinY)
	}
}

func TestConfigDefaults(t *testing.T) {
	r := NewRenderer(Config{})
	cfg := r.Config()
	if cfg.Width != 256 || cfg.Height != 256 || cfg.VFovDeg != 50 {
		t.Fatalf("defaults wrong: %+v", cfg)
	}
}

func TestSilhouetteVisibleAcrossPaperEnvelope(t *testing.T) {
	// Every (altitude, azimuth) combination the paper probes must at least
	// render a visible signaller.
	r := NewRenderer(Config{})
	for _, alt := range []float64{2, 3, 4, 5} {
		for _, az := range []float64{0, 30, 65, 90, 180} {
			v := View{AltitudeM: alt, DistanceM: 3, AzimuthDeg: az}
			img, err := r.Render(body.SignNo, v, body.Options{}, nil)
			if err != nil {
				t.Fatalf("%v: %v", v, err)
			}
			if foreground(vision.OtsuBinarize(img)) < 200 {
				t.Fatalf("%v: silhouette too small", v)
			}
		}
	}
}

func TestWristJitterChangesFrame(t *testing.T) {
	r := NewRenderer(Config{})
	a, _ := r.Render(body.SignYes, ReferenceView(), body.Options{}, nil)
	b, _ := r.Render(body.SignYes, ReferenceView(), body.Options{ArmJitterDeg: 10}, nil)
	diff := 0
	for i := range a.Pix {
		if a.Pix[i] != b.Pix[i] {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("arm jitter must change the rendered frame")
	}
}

func TestViewString(t *testing.T) {
	s := View{AltitudeM: 5, DistanceM: 3, AzimuthDeg: 65}.String()
	if s == "" || math.IsNaN(5) {
		t.Fatal("empty view string")
	}
}

func TestRenderFiguresWithBystander(t *testing.T) {
	r := NewRenderer(Config{})
	signaller, err := body.NewFigure(body.SignNo, body.Options{})
	if err != nil {
		t.Fatal(err)
	}
	bystander, err := body.NewFigure(body.SignIdle, body.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Bystander 2.5 m to the signaller's left, slightly behind.
	off := geomV3(2.5, 1.0, 0)
	bystander.HeadCenter = bystander.HeadCenter.Add(off)
	for i := range bystander.Capsules {
		c := &bystander.Capsules[i]
		c.A, c.B = c.A.Add(off), c.B.Add(off)
	}

	img, err := r.RenderFigures([]body.Figure{signaller, bystander}, ReferenceView(), nil)
	if err != nil {
		t.Fatal(err)
	}
	mask := vision.OtsuBinarize(img)
	// Two figures make at least two components: the largest cannot hold
	// every foreground pixel.
	_, largest, err := vision.NewScratch().LargestComponent(mask)
	if err != nil {
		t.Fatal(err)
	}
	if largest.Area >= foreground(mask) {
		t.Fatalf("largest component holds all %d foreground pixels: want ≥2 components (signaller + bystander)", largest.Area)
	}
	// Empty figure list rejected.
	if _, err := r.RenderFigures(nil, ReferenceView(), nil); err == nil {
		t.Fatal("empty figure list should fail")
	}
}
