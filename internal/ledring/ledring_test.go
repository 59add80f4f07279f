package ledring

import (
	"math"
	"strings"
	"testing"

	"hdc/internal/geom"
)

func TestNewDefaults(t *testing.T) {
	r, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.opts.LEDCount != DefaultLEDCount {
		t.Fatalf("LED count = %d", r.opts.LEDCount)
	}
	// Safety default: danger (all red), per §II and the red-danger
	// association the paper cites.
	if r.Mode() != ModeDanger {
		t.Fatalf("initial mode = %v, want danger", r.Mode())
	}
	if !IsDanger(r.LEDs()) {
		t.Fatal("initial display must be all red")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Options{LEDCount: 2}); err == nil {
		t.Error("2 LEDs should fail")
	}
	if _, err := New(Options{VerticalArray: -1}); err == nil {
		t.Error("negative vertical array should fail")
	}
}

func TestModeTransitions(t *testing.T) {
	r, _ := New(Options{})
	r.SetNavigation(geom.North)
	if r.Mode() != ModeNavigation {
		t.Fatal("navigation not set")
	}
	r.SetDanger()
	if !IsDanger(r.LEDs()) {
		t.Fatal("danger not all red")
	}
	r.SetOff()
	for _, c := range r.LEDs() {
		if c != Off {
			t.Fatal("off mode must extinguish all LEDs")
		}
	}
}

func TestNavigationSectors(t *testing.T) {
	r, _ := New(Options{})
	r.SetNavigation(geom.North) // LED 0 is the nose
	leds := r.LEDs()
	// n=10, LED i at i*36° from nose. Green: [0,110) → LEDs 0,1,2,3 (0°,36°,
	// 72°,108°). White: [110,250] → LEDs 4,5,6 (144°,180°,216°). Red:
	// (250,360) → LEDs 7,8,9 (252°,288°,324°).
	wantGreen := []int{0, 1, 2, 3}
	wantWhite := []int{4, 5, 6}
	wantRed := []int{7, 8, 9}
	for _, i := range wantGreen {
		if leds[i] != Green {
			t.Errorf("LED %d = %v, want green", i, leds[i])
		}
	}
	for _, i := range wantWhite {
		if leds[i] != White {
			t.Errorf("LED %d = %v, want white", i, leds[i])
		}
	}
	for _, i := range wantRed {
		if leds[i] != Red {
			t.Errorf("LED %d = %v, want red", i, leds[i])
		}
	}
}

func TestNavigationRotatesWithHeading(t *testing.T) {
	r, _ := New(Options{})
	r.SetNavigation(geom.Heading(math.Pi / 2)) // 90°: pattern rotates by 2.5 LEDs
	leds := r.LEDs()
	// LED 3 is at 108°, rel = 18° → green; LED 0 at rel 270° → red.
	if leds[3] != Green {
		t.Errorf("LED 3 = %v, want green", leds[3])
	}
	if leds[0] != Red {
		t.Errorf("LED 0 = %v, want red", leds[0])
	}
}

func TestSectorCoverageAllHeadings(t *testing.T) {
	// Property: for every heading, the ring shows all three colours with
	// green+red covering ~6-7 LEDs and white 3-4 (n=10).
	r, _ := New(Options{})
	for deg := 0.0; deg < 360; deg += 7 {
		r.SetNavigation(geom.HeadingFromDeg(deg))
		var counts [4]int
		for _, c := range r.LEDs() {
			counts[c]++
		}
		if counts[Green] < 3 || counts[Green] > 4 {
			t.Fatalf("heading %v: %d green LEDs", deg, counts[Green])
		}
		if counts[Red] < 2 || counts[Red] > 4 {
			t.Fatalf("heading %v: %d red LEDs", deg, counts[Red])
		}
		if counts[White] < 3 || counts[White] > 5 {
			t.Fatalf("heading %v: %d white LEDs", deg, counts[White])
		}
		if counts[Off] != 0 {
			t.Fatalf("heading %v: dark LEDs in navigation mode", deg)
		}
	}
}

func TestDecodeHeadingRoundTrip(t *testing.T) {
	r, _ := New(Options{})
	for deg := 0.0; deg < 360; deg += 10 {
		h := geom.HeadingFromDeg(deg)
		r.SetNavigation(h)
		got, err := DecodeHeading(r.LEDs())
		if err != nil {
			t.Fatalf("heading %v: %v", deg, err)
		}
		errDeg := geom.Rad2Deg(got.AbsDiff(h))
		// Decode error bounded by the quantisation pitch.
		if errDeg > HeadingQuantizationErrorDeg(10)+36+1e-9 {
			t.Fatalf("heading %v decoded as %v (err %v°)", deg, got, errDeg)
		}
	}
}

func TestDecodeHeadingQuantizationImprovesWithLEDCount(t *testing.T) {
	// E11 ablation property: more LEDs → finer heading display.
	meanErr := func(n int) float64 {
		r, err := New(Options{LEDCount: n})
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		var cnt int
		for deg := 0.0; deg < 360; deg += 3 {
			h := geom.HeadingFromDeg(deg)
			r.SetNavigation(h)
			got, err := DecodeHeading(r.LEDs())
			if err != nil {
				t.Fatalf("n=%d heading %v: %v", n, deg, err)
			}
			sum += geom.Rad2Deg(got.AbsDiff(h))
			cnt++
		}
		return sum / float64(cnt)
	}
	e6, e10, e24 := meanErr(6), meanErr(10), meanErr(24)
	if !(e24 < e10 && e10 < e6) {
		t.Fatalf("decode error should fall with LED count: e6=%.1f e10=%.1f e24=%.1f", e6, e10, e24)
	}
}

func TestDecodeHeadingRejectsNonNavigation(t *testing.T) {
	r, _ := New(Options{})
	if _, err := DecodeHeading(r.LEDs()); err == nil {
		t.Fatal("danger display must not decode as heading")
	}
	if _, err := DecodeHeading(nil); err == nil {
		t.Fatal("empty display must fail")
	}
}

func TestIsDanger(t *testing.T) {
	if IsDanger(nil) {
		t.Fatal("empty is not danger")
	}
	if !IsDanger([]Color{Red, Red, Red}) {
		t.Fatal("all red is danger")
	}
	if IsDanger([]Color{Red, Green, Red}) {
		t.Fatal("mixed is not danger")
	}
}

func TestVerticalArrayAnimation(t *testing.T) {
	r, _ := New(Options{VerticalArray: 5})
	if err := r.StartVertical(VerticalTakeOff); err != nil {
		t.Fatal(err)
	}
	// Take-off: light travels bottom (index 0) to top.
	v := r.Vertical()
	if !v[0] {
		t.Fatalf("take-off must start at the bottom: %v", v)
	}
	r.TickVertical()
	v = r.Vertical()
	if !v[1] || v[0] {
		t.Fatalf("take-off should advance upwards: %v", v)
	}

	if err := r.StartVertical(VerticalLanding); err != nil {
		t.Fatal(err)
	}
	v = r.Vertical()
	if !v[4] {
		t.Fatalf("landing must start at the top: %v", v)
	}
	r.TickVertical()
	v = r.Vertical()
	if !v[3] {
		t.Fatalf("landing should advance downwards: %v", v)
	}

	r.StopVertical()
	for _, on := range r.Vertical() {
		if on {
			t.Fatal("stop must extinguish the array")
		}
	}
}

func TestVerticalArrayAbsent(t *testing.T) {
	r, _ := New(Options{})
	if err := r.StartVertical(VerticalTakeOff); err == nil {
		t.Fatal("missing array must error")
	}
	r.TickVertical() // no-op, must not panic
}

func TestRenderContainsGlyphs(t *testing.T) {
	r, _ := New(Options{})
	art := r.Render()
	if !strings.Contains(art, "danger") || !strings.Contains(art, "R") {
		t.Fatalf("danger render missing content:\n%s", art)
	}
	r.SetNavigation(geom.North)
	art = r.Render()
	for _, glyph := range []string{"R", "G", "W", "navigation"} {
		if !strings.Contains(art, glyph) {
			t.Fatalf("navigation render missing %q:\n%s", glyph, art)
		}
	}
}

func TestColorModeStrings(t *testing.T) {
	if Red.String() != "red" || Off.String() != "off" || Color(9).String() == "" {
		t.Fatal("color strings wrong")
	}
	if ModeDanger.String() != "danger" || Mode(0).String() == "" {
		t.Fatal("mode strings wrong")
	}
}

func TestQuantizationError(t *testing.T) {
	if HeadingQuantizationErrorDeg(10) != 18 {
		t.Fatal("10-LED pitch error should be 18°")
	}
	if HeadingQuantizationErrorDeg(0) != 180 {
		t.Fatal("degenerate count should be 180°")
	}
	if math.Abs(HeadingQuantizationErrorDeg(36)-5) > 1e-9 {
		t.Fatal("36-LED pitch error should be 5°")
	}
}

func TestPulsePatterns(t *testing.T) {
	r, _ := New(Options{})
	if err := r.StartPulse(PulseTakeOff); err != nil {
		t.Fatal(err)
	}
	if r.pulse != PulseTakeOff {
		t.Fatal("pulse not active")
	}
	frameA := r.LEDs()
	r.TickPulse()
	frameB := r.LEDs()
	// Take-off alternates green/white over the whole ring.
	for _, c := range frameA {
		if c != Green {
			t.Fatalf("take-off phase 0 should be green, got %v", c)
		}
	}
	for _, c := range frameB {
		if c != White {
			t.Fatalf("take-off phase 1 should be white, got %v", c)
		}
	}
	got, err := ClassifyPulse(frameA, frameB)
	if err != nil || got != PulseTakeOff {
		t.Fatalf("classify take-off = %v, %v", got, err)
	}
	// Order invariance (the observer can start watching at either phase).
	got, err = ClassifyPulse(frameB, frameA)
	if err != nil || got != PulseTakeOff {
		t.Fatalf("classify reversed take-off = %v, %v", got, err)
	}

	if err := r.StartPulse(PulseLanding); err != nil {
		t.Fatal(err)
	}
	fA := r.LEDs()
	r.TickPulse()
	fB := r.LEDs()
	got, err = ClassifyPulse(fA, fB)
	if err != nil || got != PulseLanding {
		t.Fatalf("classify landing = %v, %v", got, err)
	}

	// Take-off and landing are never confused: their colour pairs differ.
	if p, err := ClassifyPulse(frameA, frameB); err != nil || p == PulseLanding {
		t.Fatal("pulse confusion")
	}

	r.StopPulse()
	if r.pulse != PulseNone {
		t.Fatal("pulse not stopped")
	}
	if !IsDanger(r.LEDs()) {
		t.Fatal("stop must restore danger default")
	}
}

func TestPulseValidation(t *testing.T) {
	r, _ := New(Options{})
	if err := r.StartPulse(PulseNone); err == nil {
		t.Fatal("PulseNone should be rejected")
	}
	r.TickPulse() // no-op without active pulse, must not panic
	if _, err := ClassifyPulse(nil, nil); err == nil {
		t.Fatal("empty frames should fail")
	}
	// A navigation frame (mixed colours) is not a pulse.
	r.SetNavigation(geom.North)
	if _, err := ClassifyPulse(r.LEDs(), r.LEDs()); err == nil {
		t.Fatal("navigation frames should not classify as pulse")
	}
	// Danger/danger (red/red) is not a defined pulse pair.
	r.SetDanger()
	if _, err := ClassifyPulse(r.LEDs(), r.LEDs()); err == nil {
		t.Fatal("steady red should not classify as pulse")
	}
}

func TestPulseStrings(t *testing.T) {
	for _, p := range []Pulse{PulseNone, PulseTakeOff, PulseLanding, Pulse(9)} {
		if p.String() == "" {
			t.Fatal("empty pulse string")
		}
	}
}

// StopVertical extinguishes the vertical array.
func (r *Ring) StopVertical() {
	r.vertDir = VerticalOff
	for i := range r.vert {
		r.vert[i] = false
	}
}

// StopPulse ends the pulse and restores the danger default.
func (r *Ring) StopPulse() {
	r.pulse = PulseNone
	r.SetDanger()
}
