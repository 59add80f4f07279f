package drone

import (
	"errors"
	"math"
	"testing"

	"hdc/internal/flight"
	"hdc/internal/geom"
	"hdc/internal/ledring"
	"hdc/internal/telemetry"
)

func newAgent(t testing.TB, cfg Config) *Agent {
	t.Helper()
	a, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestNewDefaults(t *testing.T) {
	a := newAgent(t, Config{})
	if a.BatteryFrac() != 1 {
		t.Fatalf("battery = %v", a.BatteryFrac())
	}
	if a.Ring.Mode() != ledring.ModeDanger {
		t.Fatal("ring must boot in danger default")
	}
	if a.tripped {
		t.Fatal("fresh agent tripped")
	}
}

func TestTakeOffTurnsOnNavigation(t *testing.T) {
	a := newAgent(t, Config{})
	if _, err := a.FlyPattern(flight.PatternTakeOff, geom.Vec3{}); err != nil {
		t.Fatal(err)
	}
	if a.Ring.Mode() != ledring.ModeNavigation {
		t.Fatalf("ring mode after take-off = %v", a.Ring.Mode())
	}
}

// TestFig2LandingSequence reproduces Figure 2: descend to ground, rotors
// off, and only then navigation lights extinguished — in that order.
func TestFig2LandingSequence(t *testing.T) {
	log := telemetry.NewLog()
	a, err := New(Config{}, log)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.FlyPattern(flight.PatternTakeOff, geom.Vec3{}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.FlyPattern(flight.PatternLand, geom.Vec3{}); err != nil {
		t.Fatal(err)
	}
	if a.D.RotorsOn() {
		t.Fatal("rotors running after landing")
	}
	if a.Ring.Mode() != ledring.ModeOff {
		t.Fatalf("lights still %v after landing", a.Ring.Mode())
	}
	// Event order: touchdown ≤ rotors-off ≤ lights-off.
	var order []string
	for _, e := range log.Events() {
		switch e.Kind {
		case "touchdown", "rotors-off", "lights-off":
			order = append(order, e.Kind)
		}
	}
	want := []string{"touchdown", "rotors-off", "lights-off"}
	if len(order) != 3 {
		t.Fatalf("sequence events = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("Fig 2 order violated: %v", order)
		}
	}
}

func TestNavigationTracksMotion(t *testing.T) {
	a := newAgent(t, Config{})
	if _, err := a.FlyPattern(flight.PatternTakeOff, geom.Vec3{}); err != nil {
		t.Fatal(err)
	}
	// Cruise east; ring must display an easterly direction.
	if _, err := a.FlyPattern(flight.PatternCruise, geom.V3(30, 0, 0)); err != nil {
		t.Fatal(err)
	}
	if a.Ring.Mode() != ledring.ModeNavigation {
		t.Fatal("ring left navigation mode")
	}
	got, err := ledring.DecodeHeading(a.Ring.LEDs())
	if err != nil {
		t.Fatal(err)
	}
	if got.AbsDiff(geom.Heading(math.Pi/2)) > geom.Deg2Rad(45) {
		t.Fatalf("displayed heading %v, want ≈east", got)
	}
}

func TestBatteryDrainsAndTrips(t *testing.T) {
	a := newAgent(t, Config{
		Battery: BatteryModel{CapacityWh: 0.8, HoverDrawW: 3600}, // 1 Wh/s: dies in ~0.7 s of flight... scaled for test speed
	})
	if _, err := a.FlyPattern(flight.PatternTakeOff, geom.Vec3{}); err == nil {
		// Take-off takes ~2 s of sim time; the battery must trip during it.
		t.Fatal("expected battery trip during take-off")
	} else if !errors.Is(err, ErrSafetyTripped) {
		t.Fatalf("unexpected error: %v", err)
	}
	if a.Ring.Mode() != ledring.ModeDanger {
		t.Fatal("battery trip must raise danger display")
	}
	if !a.tripped || a.tripCause == "" {
		t.Fatal("trip not latched")
	}
	// Latched: further commands refused.
	if _, err := a.FlyPattern(flight.PatternCruise, geom.V3(5, 5, 0)); !errors.Is(err, ErrSafetyTripped) {
		t.Fatalf("latched agent accepted a command: %v", err)
	}
}

func TestSeparationTrip(t *testing.T) {
	a := newAgent(t, Config{})
	if _, err := a.FlyPattern(flight.PatternTakeOff, geom.Vec3{}); err != nil {
		t.Fatal(err)
	}
	// A human directly below the flight path.
	a.SetHumans([]geom.Vec2{{X: 10, Y: 0}})
	_, err := a.FlyPattern(flight.PatternCruise, geom.V3(10, 0, 0))
	if !errors.Is(err, ErrSafetyTripped) {
		t.Fatalf("expected separation trip, got %v", err)
	}
	if a.Ring.Mode() != ledring.ModeDanger {
		t.Fatal("danger display missing")
	}
}

func TestSeparationWaiver(t *testing.T) {
	a := newAgent(t, Config{})
	if _, err := a.FlyPattern(flight.PatternTakeOff, geom.Vec3{}); err != nil {
		t.Fatal(err)
	}
	a.SetHumans([]geom.Vec2{{X: 10, Y: 0}})
	a.WaiveSeparation(true) // negotiated entry granted
	if _, err := a.FlyPattern(flight.PatternCruise, geom.V3(10, 0, 0)); err != nil {
		t.Fatalf("waived separation still tripped: %v", err)
	}
	a.WaiveSeparation(false)
}

func TestGeofenceTrip(t *testing.T) {
	a := newAgent(t, Config{Safety: SafetyLimits{GeofenceRadius: 20}})
	if _, err := a.FlyPattern(flight.PatternTakeOff, geom.Vec3{}); err != nil {
		t.Fatal(err)
	}
	_, err := a.FlyPattern(flight.PatternCruise, geom.V3(100, 0, 0))
	if !errors.Is(err, ErrSafetyTripped) {
		t.Fatalf("expected geofence trip, got %v", err)
	}
	if a.tripCause != "geofence breach" {
		t.Fatalf("cause = %q", a.tripCause)
	}
}

func TestClockAdvancesWithPatterns(t *testing.T) {
	a := newAgent(t, Config{})
	if _, err := a.FlyPattern(flight.PatternTakeOff, geom.Vec3{}); err != nil {
		t.Fatal(err)
	}
	c0 := a.Clock()
	if _, err := a.FlyPattern(flight.PatternNod, geom.Vec3{}); err != nil {
		t.Fatal(err)
	}
	if a.Clock() <= c0 {
		t.Fatal("pattern did not advance the clock")
	}
}
