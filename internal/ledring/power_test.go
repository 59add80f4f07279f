package ledring

import (
	"math"
	"testing"
)

func TestVisibilityRangeBasics(t *testing.T) {
	// A 1 cd indicator in darkness is visible for kilometers; in full
	// daylight only tens of meters.
	dark, err := VisibilityRangeM(PhotometricParams{IntensityCd: 1, AmbientLux: 0})
	if err != nil {
		t.Fatal(err)
	}
	day, err := VisibilityRangeM(PhotometricParams{IntensityCd: 1, AmbientLux: 10000})
	if err != nil {
		t.Fatal(err)
	}
	if dark < 1000 {
		t.Fatalf("dark range %v m implausibly short", dark)
	}
	if day > 200 {
		t.Fatalf("daylight range %v m implausibly long for 1 cd", day)
	}
	if day >= dark {
		t.Fatal("ambient light must reduce visibility")
	}
}

func TestVisibilityMonotonicity(t *testing.T) {
	// More intensity → more range; more ambient → less range.
	prevRange := 0.0
	for _, cd := range []float64{0.5, 2, 10, 50} {
		r, err := VisibilityRangeM(PhotometricParams{IntensityCd: cd, AmbientLux: 5000})
		if err != nil {
			t.Fatal(err)
		}
		if r <= prevRange {
			t.Fatalf("range not increasing with intensity: %v after %v", r, prevRange)
		}
		prevRange = r
	}
	prevRange = math.Inf(1)
	for _, lux := range []float64{10, 1000, 10000, 25000} {
		r, err := VisibilityRangeM(PhotometricParams{IntensityCd: 5, AmbientLux: lux})
		if err != nil {
			t.Fatal(err)
		}
		if r >= prevRange {
			t.Fatalf("range not decreasing with ambient: %v after %v", r, prevRange)
		}
		prevRange = r
	}
}

func TestRequiredIntensityRoundTrip(t *testing.T) {
	const ambient = 8000.0
	const wantRange = 60.0
	cd, err := RequiredIntensityCd(wantRange, ambient, 1)
	if err != nil {
		t.Fatal(err)
	}
	r, err := VisibilityRangeM(PhotometricParams{IntensityCd: cd, AmbientLux: ambient})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r-wantRange) > 0.5 {
		t.Fatalf("round trip: wanted %v m, got %v m", wantRange, r)
	}
	if _, err := RequiredIntensityCd(0, ambient, 1); err == nil {
		t.Fatal("zero range should fail")
	}
}

func TestRingPowerScalesWithCount(t *testing.T) {
	p := PhotometricParams{IntensityCd: 10}
	w10, err := RingPowerW(10, p)
	if err != nil {
		t.Fatal(err)
	}
	w20, err := RingPowerW(20, p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(w20-2*w10) > 1e-9 {
		t.Fatalf("power not linear in count: %v vs %v", w10, w20)
	}
	if _, err := RingPowerW(0, p); err == nil {
		t.Fatal("zero LEDs should fail")
	}
	// Collimation (smaller beam) reduces power at the same intensity — the
	// paper's "separate high luminosity LEDs" optimisation.
	collimated := p
	collimated.BeamSr = 0.5
	wc, err := RingPowerW(10, collimated)
	if err != nil {
		t.Fatal(err)
	}
	if wc >= w10 {
		t.Fatalf("collimated beam should cost less: %v vs %v", wc, w10)
	}
}

// TestPaperPowerTradeoff quantifies the §II concern end to end: making the
// 10-LED ring legible at the paper's working distances in daylight is
// cheap; pushing it to hundreds of meters is where the battery bites.
func TestPaperPowerTradeoff(t *testing.T) {
	const daylight = 10000.0
	costAt := func(rangeM float64) float64 {
		cd, err := RequiredIntensityCd(rangeM, daylight, 1)
		if err != nil {
			t.Fatal(err)
		}
		w, err := RingPowerW(10, PhotometricParams{IntensityCd: cd, AmbientLux: daylight})
		if err != nil {
			t.Fatal(err)
		}
		lost, err := EnduranceImpact(w, 180, 25)
		if err != nil {
			t.Fatal(err)
		}
		return lost
	}
	near := costAt(30) // orchard working range
	far := costAt(300) // perimeter signalling
	if near > 1 {
		t.Fatalf("30 m legibility costs %.2f min of 25 — implausibly expensive", near)
	}
	if far <= near*10 {
		t.Fatalf("inverse-square cost growth missing: %v vs %v", far, near)
	}
}

func TestEnduranceImpactValidation(t *testing.T) {
	if _, err := EnduranceImpact(1, 0, 25); err == nil {
		t.Fatal("zero hover draw should fail")
	}
	if _, err := EnduranceImpact(-1, 180, 25); err == nil {
		t.Fatal("negative ring power should fail")
	}
	lost, err := EnduranceImpact(0, 180, 25)
	if err != nil || lost != 0 {
		t.Fatal("zero ring power should cost nothing")
	}
}

func TestPhotometricValidation(t *testing.T) {
	if _, err := VisibilityRangeM(PhotometricParams{IntensityCd: 0}); err == nil {
		t.Fatal("zero intensity should fail")
	}
	if _, err := VisibilityRangeM(PhotometricParams{IntensityCd: 1, AmbientLux: -5}); err == nil {
		t.Fatal("negative ambient should fail")
	}
}

// VisibilityRangeM returns the distance (meters) at which a single LED of
// the ring remains detectable: inverse-square falloff of the LED's
// intensity against the ambient-dependent detection threshold.
func VisibilityRangeM(p PhotometricParams) (float64, error) {
	p, err := p.withDefaults()
	if err != nil {
		return 0, err
	}
	threshold := detectionThresholdLux(p.AmbientLux) * p.ContrastThreshold
	// E = I / d²  ⇒  d = sqrt(I / E_threshold).
	return math.Sqrt(p.IntensityCd / threshold), nil
}
