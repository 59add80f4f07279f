package flight

import (
	"math"
	"math/rand"
	"testing"

	"hdc/internal/geom"
)

func newDrone(t testing.TB) *Drone {
	t.Helper()
	d, err := New(DefaultParams(), geom.V3(0, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func airborne(t testing.TB) *Drone {
	t.Helper()
	d := newDrone(t)
	e := NewExecutor(d)
	if _, err := e.Fly(PatternTakeOff, geom.Vec3{}); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestParamsValidate(t *testing.T) {
	p := DefaultParams()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	p.MaxSpeed = 0
	if err := p.Validate(); err == nil {
		t.Fatal("zero speed should fail")
	}
}

func TestRotorSafety(t *testing.T) {
	d := newDrone(t)
	// No motion with rotors off.
	d.Step(0.1, geom.V3(1, 0, 1), 0)
	if d.S.Pos != (geom.V3(0, 0, 0)) {
		t.Fatal("moved with rotors off")
	}
	d.StartRotors()
	for i := 0; i < 100; i++ {
		d.Step(0.05, geom.V3(0, 0, 2), 0)
	}
	if d.S.Pos.Z < 1 {
		t.Fatalf("climb failed: %v", d.S.Pos)
	}
	// Refuse rotor stop in mid-air.
	if err := d.StopRotors(); err == nil {
		t.Fatal("rotor stop at altitude must be refused")
	}
}

func TestStepLimits(t *testing.T) {
	d := newDrone(t)
	d.StartRotors()
	// Command absurd velocity; speed must stay within limits (+wind 0).
	for i := 0; i < 200; i++ {
		d.Step(0.05, geom.V3(100, 0, 100), 99)
	}
	if h := d.S.Vel.XY().Norm(); h > d.P.MaxSpeed+1e-9 {
		t.Fatalf("horizontal speed %v exceeds limit", h)
	}
	if d.S.Vel.Z > d.P.MaxAscent+1e-9 {
		t.Fatalf("climb rate %v exceeds limit", d.S.Vel.Z)
	}
}

func TestGroundClamp(t *testing.T) {
	d := newDrone(t)
	d.StartRotors()
	for i := 0; i < 100; i++ {
		d.Step(0.05, geom.V3(0, 0, -5), 0)
	}
	if d.S.Pos.Z != 0 {
		t.Fatalf("drone went underground: %v", d.S.Pos.Z)
	}
}

func TestFlyToReachesWaypoint(t *testing.T) {
	d := airborne(t)
	rec := &Recorder{}
	ok := d.FlyTo(geom.V3(10, 5, 5), 0, 0.05, 60, 0.2, rec)
	if !ok {
		t.Fatalf("waypoint unreached, at %v", d.S.Pos)
	}
	if len(rec.Trajectory()) == 0 {
		t.Fatal("no trajectory recorded")
	}
	// Heading should roughly point along the flown direction at some point.
	if d.S.Pos.Dist(geom.V3(10, 5, 5)) > 0.2 {
		t.Fatal("final position off")
	}
}

func TestWindPushesDrone(t *testing.T) {
	d := airborne(t)
	w, err := NewWind(geom.V2(2, 0), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	d.Wind = w
	start := d.S.Pos
	for i := 0; i < 100; i++ {
		d.Step(0.05, geom.Vec3{}, 0) // hover command, wind drifts it
	}
	if d.S.Pos.X-start.X < 5 {
		t.Fatalf("steady wind failed to drift the drone: %v", d.S.Pos)
	}
}

func TestWindGustsNeedRng(t *testing.T) {
	if _, err := NewWind(geom.V2(0, 0), 1, nil); err == nil {
		t.Fatal("gusts without rng should fail")
	}
	w, err := NewWind(geom.V2(0, 0), 1, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	// Gusts vary over time but stay bounded in distribution.
	var maxN float64
	for i := 0; i < 1000; i++ {
		g := w.Sample(0.05)
		if n := g.Norm(); n > maxN {
			maxN = n
		}
	}
	if maxN == 0 {
		t.Fatal("gusts never materialised")
	}
	if maxN > 8 { // 8σ would be absurd
		t.Fatalf("gust %v implausible", maxN)
	}
	// nil wind is calm.
	var calm *Wind
	if calm.Sample(0.05) != (geom.Vec2{}) {
		t.Fatal("nil wind must be calm")
	}
}

func TestTakeOffPattern(t *testing.T) {
	d := newDrone(t)
	e := NewExecutor(d)
	tr, err := e.Fly(PatternTakeOff, geom.Vec3{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d.S.Pos.Z-d.P.CruiseAlt) > 0.2 {
		t.Fatalf("altitude after take-off: %v", d.S.Pos.Z)
	}
	// Vertical: no horizontal wandering.
	for _, s := range tr {
		if s.Pos.XY().Norm() > 0.3 {
			t.Fatalf("take-off drifted horizontally: %v", s.Pos)
		}
	}
	// Take-off from mid-air is rejected.
	if _, err := e.Fly(PatternTakeOff, geom.Vec3{}); err == nil {
		t.Fatal("second take-off should fail")
	}
}

func TestLandPattern(t *testing.T) {
	d := airborne(t)
	e := NewExecutor(d)
	tr, err := e.Fly(PatternLand, geom.Vec3{})
	if err != nil {
		t.Fatal(err)
	}
	if d.S.Pos.Z > 0.05 {
		t.Fatalf("still airborne after landing: %v", d.S.Pos.Z)
	}
	// Fig 2 ordering: rotors off only after touchdown (StopRotors inside
	// Fly(PatternLand) would have errored otherwise).
	if d.RotorsOn() {
		t.Fatal("rotors still on after landing")
	}
	if tr.Duration() <= 0 {
		t.Fatal("empty landing trajectory")
	}
}

func TestGroundedPatternsRejected(t *testing.T) {
	d := newDrone(t)
	e := NewExecutor(d)
	for _, p := range []Pattern{PatternCruise, PatternLand, PatternPoke, PatternNod, PatternHeadTurn, PatternRectangle} {
		if _, err := e.Fly(p, geom.V3(5, 5, 0)); err == nil {
			t.Errorf("%v on the ground should fail", p)
		}
	}
}

func TestInvalidPattern(t *testing.T) {
	d := airborne(t)
	e := NewExecutor(d)
	if _, err := e.Fly(Pattern(0), geom.Vec3{}); err == nil {
		t.Fatal("invalid pattern should fail")
	}
}

func TestPatternClassificationRoundTrip(t *testing.T) {
	// Every pattern's own trajectory must classify back to itself — the
	// "unmistakable" property of §III (E12, clean-air case).
	target := geom.V3(8, 3, 0)
	for _, p := range Patterns() {
		d := newDrone(t)
		e := NewExecutor(d)
		if p != PatternTakeOff {
			if _, err := e.Fly(PatternTakeOff, geom.Vec3{}); err != nil {
				t.Fatal(err)
			}
		}
		tr, err := e.Fly(p, target)
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		got, feats, err := Classify(tr)
		if err != nil {
			t.Fatalf("%v: classify: %v (features %+v)", p, err, feats)
		}
		if got != p {
			t.Errorf("%v classified as %v (features %+v)", p, got, feats)
		}
	}
}

func TestPatternClassificationUnderWind(t *testing.T) {
	// E12: classification must survive moderate gusts.
	rng := rand.New(rand.NewSource(99))
	misses := 0
	trials := 0
	for _, p := range CommunicativePatterns() {
		for trial := 0; trial < 5; trial++ {
			d := newDrone(t)
			e := NewExecutor(d)
			if _, err := e.Fly(PatternTakeOff, geom.Vec3{}); err != nil {
				t.Fatal(err)
			}
			w, _ := NewWind(geom.V2(0.3, 0.1), 0.35, rng)
			d.Wind = w
			tr, err := e.Fly(p, geom.V3(6, 2, 0))
			if err != nil {
				// Wind can push a corner out of tolerance; count as a miss.
				misses++
				trials++
				continue
			}
			got, _, err := Classify(tr)
			trials++
			if err != nil || got != p {
				misses++
			}
		}
	}
	if misses > trials/4 {
		t.Fatalf("windy misclassification %d/%d exceeds 25%%", misses, trials)
	}
}

func TestClassifyTooShort(t *testing.T) {
	if _, _, err := Classify(nil); err == nil {
		t.Fatal("empty trajectory should fail")
	}
	if _, _, err := Classify(Trajectory{{}, {}}); err == nil {
		t.Fatal("two samples should fail")
	}
}

func TestFeaturesNodCycles(t *testing.T) {
	d := airborne(t)
	e := NewExecutor(d)
	e.Cycles = 4
	tr, err := e.Fly(PatternNod, geom.Vec3{})
	if err != nil {
		t.Fatal(err)
	}
	f, err := ExtractFeatures(tr)
	if err != nil {
		t.Fatal(err)
	}
	if f.VertCycles < 3 {
		t.Fatalf("nod cycles = %d, want ≥3", f.VertCycles)
	}
	if !f.Closed {
		t.Fatal("nod must end where it started")
	}
}

// TestNodsHoldAltitude pins that a nod ends at its start altitude: 60 nods
// back to back leave the drone within 5 cm of where it began.
func TestNodsHoldAltitude(t *testing.T) {
	d := airborne(t)
	e := NewExecutor(d)
	start := d.S.Pos.Z
	for i := 0; i < 60; i++ {
		if _, err := e.Fly(PatternNod, geom.Vec3{}); err != nil {
			t.Fatalf("nod %d: %v", i, err)
		}
	}
	if drift := math.Abs(d.S.Pos.Z - start); drift >= 0.05 {
		t.Fatalf("60 nods moved altitude %.3f → %.3f m", start, d.S.Pos.Z)
	}
}

func TestFeaturesHeadTurnYaw(t *testing.T) {
	d := airborne(t)
	e := NewExecutor(d)
	tr, err := e.Fly(PatternHeadTurn, geom.Vec3{})
	if err != nil {
		t.Fatal(err)
	}
	f, _ := ExtractFeatures(tr)
	if f.YawRange < geom.Deg2Rad(90) {
		t.Fatalf("yaw range %v too small", f.YawRange)
	}
	if f.PathHorizontal > 1.5 {
		t.Fatalf("head turn translated %v m", f.PathHorizontal)
	}
}

func TestFeaturesRectangleCorners(t *testing.T) {
	d := airborne(t)
	e := NewExecutor(d)
	tr, err := e.Fly(PatternRectangle, geom.V3(2, 2, 0))
	if err != nil {
		t.Fatal(err)
	}
	f, _ := ExtractFeatures(tr)
	if f.CornerCount < 3 {
		t.Fatalf("rectangle corners = %d", f.CornerCount)
	}
	if !f.Closed {
		t.Fatal("rectangle must close")
	}
}

func TestRecorderNilSafe(t *testing.T) {
	var r *Recorder
	r.Record(0.05, State{}) // must not panic
	if r.Trajectory() != nil {
		t.Fatal("nil recorder should return nil")
	}
}

func TestTrajectoryDuration(t *testing.T) {
	if (Trajectory{}).Duration() != 0 {
		t.Fatal("empty duration should be 0")
	}
	tr := Trajectory{{T: 1}, {T: 3.5}}
	if tr.Duration() != 2.5 {
		t.Fatal("duration wrong")
	}
}

func TestPatternStrings(t *testing.T) {
	for _, p := range Patterns() {
		if p.String() == "" || !p.Valid() {
			t.Fatalf("pattern %d bad", int(p))
		}
	}
	if Pattern(0).Valid() || Pattern(99).String() == "" {
		t.Fatal("invalid pattern handling wrong")
	}
}
