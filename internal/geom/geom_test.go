package geom

import (
	"math"
	"testing"
	"testing/quick"
)

const eps = 1e-9

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestVec2Basics(t *testing.T) {
	tests := []struct {
		name string
		got  Vec2
		want Vec2
	}{
		{"add", V2(1, 2).Add(V2(3, -1)), V2(4, 1)},
		{"sub", V2(1, 2).Sub(V2(3, -1)), V2(-2, 3)},
		{"scale", V2(1, -2).Scale(2.5), V2(2.5, -5)},
		{"unit", V2(3, 4).Unit(), V2(0.6, 0.8)},
		{"unit zero", V2(0, 0).Unit(), V2(0, 0)},
		{"lerp mid", V2(0, 0).Lerp(V2(2, 4), 0.5), V2(1, 2)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if !almostEq(tt.got.X, tt.want.X, eps) || !almostEq(tt.got.Y, tt.want.Y, eps) {
				t.Fatalf("got %v want %v", tt.got, tt.want)
			}
		})
	}
}

func TestVec2NormDot(t *testing.T) {
	if got := V2(3, 4).Norm(); !almostEq(got, 5, eps) {
		t.Errorf("Norm = %v, want 5", got)
	}
	if got := V2(1, 2).Dot(V2(3, 4)); !almostEq(got, 11, eps) {
		t.Errorf("Dot = %v, want 11", got)
	}
	if got := V2(1, 0).Cross(V2(0, 1)); !almostEq(got, 1, eps) {
		t.Errorf("Cross = %v, want 1", got)
	}
	if got := V2(1, 1).Dist(V2(4, 5)); !almostEq(got, 5, eps) {
		t.Errorf("Dist = %v, want 5", got)
	}
}

func TestVec2Rotate(t *testing.T) {
	got := V2(1, 0).Rotate(math.Pi / 2)
	if !almostEq(got.X, 0, eps) || !almostEq(got.Y, 1, eps) {
		t.Fatalf("rotate 90°: got %v, want (0,1)", got)
	}
	// Rotation preserves norm (property check over a few values).
	for _, ang := range []float64{0.1, 1, 2, -3, 5} {
		v := V2(2, -7)
		if !almostEq(v.Rotate(ang).Norm(), v.Norm(), 1e-9) {
			t.Fatalf("rotation by %v changed norm", ang)
		}
	}
}

func TestVec3Cross(t *testing.T) {
	got := V3(1, 0, 0).Cross(V3(0, 1, 0))
	want := V3(0, 0, 1)
	if got != want {
		t.Fatalf("Cross = %v, want %v", got, want)
	}
	// Anti-commutativity property (inputs bounded to avoid float overflow,
	// which is not the property under test).
	f := func(ax, ay, az, bx, by, bz float64) bool {
		a, b := bounded3(ax, ay, az), bounded3(bx, by, bz)
		c1, c2 := a.Cross(b), b.Cross(a).Scale(-1)
		return almostEq(c1.X, c2.X, 1e-6*(1+math.Abs(c1.X))) &&
			almostEq(c1.Y, c2.Y, 1e-6*(1+math.Abs(c1.Y))) &&
			almostEq(c1.Z, c2.Z, 1e-6*(1+math.Abs(c1.Z)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVec3CrossOrthogonal(t *testing.T) {
	f := func(ax, ay, az, bx, by, bz float64) bool {
		a, b := bounded3(ax, ay, az), bounded3(bx, by, bz)
		c := a.Cross(b)
		scale := a.Norm() * b.Norm()
		if scale == 0 {
			return true
		}
		return math.Abs(c.Dot(a))/(scale*scale+1) < 1e-6 &&
			math.Abs(c.Dot(b))/(scale*scale+1) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// bounded3 maps arbitrary float64s (including NaN/Inf/huge) into a tame
// [-1000, 1000] cube so float overflow does not masquerade as an algebra
// failure in property tests.
func bounded3(x, y, z float64) Vec3 {
	f := func(v float64) float64 {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return 1
		}
		return math.Mod(v, 1000)
	}
	return V3(f(x), f(y), f(z))
}

func TestHeadingNormalisation(t *testing.T) {
	tests := []struct {
		in   float64
		want float64 // degrees
	}{
		{0, 0},
		{2 * math.Pi, 0},
		{-math.Pi / 2, 270},
		{5 * math.Pi, 180},
		{math.Pi / 2, 90},
	}
	for _, tt := range tests {
		h := NewHeading(tt.in)
		if !almostEq(h.Deg(), tt.want, 1e-6) {
			t.Errorf("NewHeading(%v).Deg() = %v, want %v", tt.in, h.Deg(), tt.want)
		}
	}
}

func TestHeadingVec(t *testing.T) {
	tests := []struct {
		h    Heading
		want Vec2
	}{
		{North, V2(0, 1)},
		{East, V2(1, 0)},
		{South, V2(0, -1)},
		{West, V2(-1, 0)},
	}
	for _, tt := range tests {
		got := tt.h.Vec()
		if !almostEq(got.X, tt.want.X, eps) || !almostEq(got.Y, tt.want.Y, eps) {
			t.Errorf("%v.Vec() = %v, want %v", tt.h, got, tt.want)
		}
		// Round trip.
		if back := HeadingOf(tt.want); !almostEq(back.AbsDiff(tt.h), 0, 1e-9) {
			t.Errorf("HeadingOf(%v) = %v, want %v", tt.want, back, tt.h)
		}
	}
}

func TestHeadingDiff(t *testing.T) {
	tests := []struct {
		a, b Heading
		want float64 // degrees, signed
	}{
		{North, East, 90},
		{East, North, -90},
		{HeadingFromDeg(350), HeadingFromDeg(10), 20},
		{HeadingFromDeg(10), HeadingFromDeg(350), -20},
		{North, South, 180},
	}
	for _, tt := range tests {
		got := Rad2Deg(tt.a.Diff(tt.b))
		if !almostEq(got, tt.want, 1e-6) {
			t.Errorf("Diff(%v,%v) = %v°, want %v°", tt.a, tt.b, got, tt.want)
		}
	}
}

func TestHeadingDiffProperty(t *testing.T) {
	f := func(a, b float64) bool {
		ha, hb := NewHeading(a), NewHeading(b)
		d := ha.Diff(hb)
		if d <= -math.Pi || d > math.Pi+1e-12 {
			return false
		}
		// Applying the diff gets us to b.
		return ha.Add(d).AbsDiff(hb) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWrapAngle(t *testing.T) {
	for _, a := range []float64{-10, -math.Pi, 0, 1, math.Pi, 10, 100} {
		w := WrapAngle(a)
		if w <= -math.Pi-1e-12 || w > math.Pi+1e-12 {
			t.Errorf("WrapAngle(%v) = %v out of range", a, w)
		}
		if s, c := math.Sincos(a); !almostEq(math.Sin(w), s, 1e-9) || !almostEq(math.Cos(w), c, 1e-9) {
			t.Errorf("WrapAngle(%v) = %v not congruent", a, w)
		}
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 1) != 1 || Clamp(-5, 0, 1) != 0 || Clamp(0.5, 0, 1) != 0.5 {
		t.Fatal("Clamp misbehaves")
	}
}

func TestCameraProjectCenter(t *testing.T) {
	// Camera 10 m up looking straight down at origin.
	cam := NewCamera(V3(0, 0, 10), V3(0, 0, 0), Deg2Rad(60), 200, 100)
	px, err := cam.Project(V3(0, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(px.X, 100, 1e-6) || !almostEq(px.Y, 50, 1e-6) {
		t.Fatalf("center projects to %v, want (100,50)", px)
	}
}

func TestCameraBehind(t *testing.T) {
	cam := NewCamera(V3(0, 0, 0), V3(0, 1, 0), Deg2Rad(60), 100, 100)
	if _, err := cam.Project(V3(0, -1, 0)); err == nil {
		t.Fatal("expected ErrBehindCamera")
	}
}

func TestCameraScaleWithDepth(t *testing.T) {
	cam := NewCamera(V3(0, 0, 1.5), V3(0, 10, 1.5), Deg2Rad(50), 400, 400)
	// An object twice as far away should appear half the size.
	s1 := cam.PixelsPerMeterAt(3)
	s2 := cam.PixelsPerMeterAt(6)
	if !almostEq(s1/s2, 2, 1e-9) {
		t.Fatalf("scale ratio = %v, want 2", s1/s2)
	}
}

func TestCameraLateralOffset(t *testing.T) {
	cam := NewCamera(V3(0, 0, 1), V3(0, 10, 1), Deg2Rad(60), 300, 300)
	left, err := cam.Project(V3(-1, 10, 1))
	if err != nil {
		t.Fatal(err)
	}
	right, err := cam.Project(V3(1, 10, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !(left.X < 150 && right.X > 150) {
		t.Fatalf("lateral projection wrong: left=%v right=%v", left, right)
	}
	up, err := cam.Project(V3(0, 10, 2))
	if err != nil {
		t.Fatal(err)
	}
	if !(up.Y < 150) {
		t.Fatalf("vertical projection wrong: up=%v", up)
	}
}

func TestCameraBuildErrors(t *testing.T) {
	c := &Camera{Eye: V3(0, 0, 0), Target: V3(0, 0, 0), VFov: 1, Width: 10, Height: 10}
	if err := c.Build(); err == nil {
		t.Error("coincident eye/target should fail")
	}
	c = &Camera{Eye: V3(0, 0, 0), Target: V3(0, 1, 0), VFov: 0, Width: 10, Height: 10}
	if err := c.Build(); err == nil {
		t.Error("zero FOV should fail")
	}
	c = &Camera{Eye: V3(0, 0, 0), Target: V3(0, 1, 0), VFov: 1, Width: 0, Height: 10}
	if err := c.Build(); err == nil {
		t.Error("zero raster should fail")
	}
}

func TestPoseForward(t *testing.T) {
	p := Pose{Pos: V3(1, 2, 3), Heading: East}
	f := p.Forward()
	if !almostEq(f.X, 1, eps) || !almostEq(f.Y, 0, eps) {
		t.Fatalf("Forward = %v, want (1,0)", f)
	}
}

// The other compass points.
const (
	East  Heading = math.Pi / 2
	South Heading = math.Pi
	West  Heading = 3 * math.Pi / 2
)

// Lerp linearly interpolates between v (t=0) and w (t=1).
func (v Vec2) Lerp(w Vec2, t float64) Vec2 {
	return Vec2{v.X + (w.X-v.X)*t, v.Y + (w.Y-v.Y)*t}
}

// Pose is a position with an orientation on the ground plane plus altitude.
type Pose struct {
	Pos     Vec3
	Heading Heading
}

// Forward returns the ground-plane unit vector the pose faces.
func (p Pose) Forward() Vec2 { return p.Heading.Vec() }

// WrapAngle normalises an angle to (-π, π].
func WrapAngle(a float64) float64 {
	a = math.Mod(a, 2*math.Pi)
	if a > math.Pi {
		a -= 2 * math.Pi
	}
	if a <= -math.Pi {
		a += 2 * math.Pi
	}
	return a
}
