package body

import (
	"math"
	"testing"

	"hdc/internal/geom"
)

func TestSignString(t *testing.T) {
	tests := []struct {
		s    Sign
		want string
	}{
		{SignIdle, "Idle"},
		{SignAttention, "Attention"},
		{SignYes, "Yes"},
		{SignNo, "No"},
		{Sign(99), "Sign(99)"},
	}
	for _, tt := range tests {
		if got := tt.s.String(); got != tt.want {
			t.Errorf("String(%d) = %q, want %q", int(tt.s), got, tt.want)
		}
	}
}

func TestSignValid(t *testing.T) {
	if Sign(0).Valid() {
		t.Error("zero sign must be invalid")
	}
	for _, s := range AllSigns() {
		if !s.Valid() {
			t.Errorf("%v should be valid", s)
		}
	}
	if !SignIdle.Valid() {
		t.Error("idle should be valid")
	}
}

func TestAllSignsExcludesIdle(t *testing.T) {
	for _, s := range AllSigns() {
		if s == SignIdle {
			t.Fatal("AllSigns must not include Idle")
		}
	}
	if len(AllSigns()) != 3 {
		t.Fatalf("want 3 communicative signs, got %d", len(AllSigns()))
	}
}

func TestNewFigureInvalidSign(t *testing.T) {
	if _, err := NewFigure(Sign(0), Options{}); err == nil {
		t.Fatal("invalid sign should fail")
	}
}

func TestFigureStructure(t *testing.T) {
	f, err := NewFigure(SignIdle, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// 3 torso/leg capsules + 4 arm capsules.
	if len(f.Capsules) != 7 {
		t.Fatalf("capsules = %d, want 7", len(f.Capsules))
	}
	if f.HeadRadius <= 0 {
		t.Fatal("head radius must be positive")
	}
	if f.HeadCenter.Z < 1.4 || f.HeadCenter.Z > 1.8 {
		t.Fatalf("head height %v implausible", f.HeadCenter.Z)
	}
	// Everything above ground.
	for _, c := range f.Capsules {
		if c.A.Z < -1e-9 || c.B.Z < -1e-9 {
			t.Fatalf("capsule below ground: %+v", c)
		}
	}
}

func TestWristHeightsDiscriminateSigns(t *testing.T) {
	wrists := map[Sign][2]float64{}
	for _, s := range []Sign{SignIdle, SignAttention, SignYes, SignNo} {
		f, err := NewFigure(s, Options{})
		if err != nil {
			t.Fatal(err)
		}
		l, r := f.WristHeights()
		wrists[s] = [2]float64{l, r}
	}
	shoulder := shoulderHeight

	// Idle: both hands below the hips.
	if wrists[SignIdle][0] > hipHeight || wrists[SignIdle][1] > hipHeight {
		t.Errorf("idle wrists %v should hang below hips", wrists[SignIdle])
	}
	// Attention: right hand well above the shoulder, left below hips.
	if wrists[SignAttention][1] < shoulder {
		t.Errorf("attention right wrist %v should be above shoulder", wrists[SignAttention][1])
	}
	if wrists[SignAttention][0] > hipHeight {
		t.Errorf("attention left wrist %v should be down", wrists[SignAttention][0])
	}
	// Yes: both hands above shoulders.
	if wrists[SignYes][0] < shoulder || wrists[SignYes][1] < shoulder {
		t.Errorf("yes wrists %v should both be raised", wrists[SignYes])
	}
	// No: left up, right down — a diagonal.
	if wrists[SignNo][0] < shoulder {
		t.Errorf("no left wrist %v should be raised", wrists[SignNo][0])
	}
	if wrists[SignNo][1] > shoulder {
		t.Errorf("no right wrist %v should be lowered", wrists[SignNo][1])
	}
}

func TestHeightScale(t *testing.T) {
	small, _ := NewFigure(SignYes, Options{HeightScale: 0.5})
	tall, _ := NewFigure(SignYes, Options{HeightScale: 1.0})
	if math.Abs(small.Height*2-tall.Height) > 1e-9 {
		t.Fatalf("height scaling wrong: %v vs %v", small.Height, tall.Height)
	}
	if small.HeadCenter.Z >= tall.HeadCenter.Z {
		t.Fatal("scaled head should be lower")
	}
	// Zero scale means 1.
	def, _ := NewFigure(SignYes, Options{})
	if def.Height != defaultHeight {
		t.Fatalf("default height = %v", def.Height)
	}
}

func TestArmJitterMovesWrists(t *testing.T) {
	clean, _ := NewFigure(SignYes, Options{})
	jit, _ := NewFigure(SignYes, Options{ArmJitterDeg: 15})
	cl, cr := clean.WristHeights()
	jl, jr := jit.WristHeights()
	if cl == jl && cr == jr {
		t.Fatal("jitter had no effect on wrists")
	}
}

func TestRotateYPreservesHeights(t *testing.T) {
	f, _ := NewFigure(SignNo, Options{})
	r := f.RotateY(math.Pi / 3)
	if len(r.Capsules) != len(f.Capsules) {
		t.Fatal("rotation changed capsule count")
	}
	for i := range f.Capsules {
		if math.Abs(r.Capsules[i].A.Z-f.Capsules[i].A.Z) > 1e-9 {
			t.Fatal("rotation about Z must preserve heights")
		}
		// Norm in XY preserved.
		a0 := f.Capsules[i].A.XY().Norm()
		a1 := r.Capsules[i].A.XY().Norm()
		if math.Abs(a0-a1) > 1e-9 {
			t.Fatal("rotation must preserve XY radius")
		}
	}
}

func TestRotateYHalfTurnMirrors(t *testing.T) {
	f, _ := NewFigure(SignNo, Options{})
	r := f.RotateY(math.Pi)
	// The raised-left-arm X offset flips sign after a half turn.
	lu := f.Capsules[3] // left upper arm
	ru := r.Capsules[3]
	if math.Abs(lu.B.X+ru.B.X) > 1e-9 {
		t.Fatalf("half turn should mirror X: %v vs %v", lu.B.X, ru.B.X)
	}
}

func TestTranslate(t *testing.T) {
	f, _ := NewFigure(SignIdle, Options{})
	off := geom.V3(3, -2, 0)
	g := f.Translate(off)
	if g.HeadCenter.Sub(f.HeadCenter) != off {
		t.Fatal("head not translated")
	}
	if g.Capsules[0].A.Sub(f.Capsules[0].A) != off {
		t.Fatal("capsule not translated")
	}
	// Original unchanged (no aliasing).
	if f.Capsules[0].A.X == g.Capsules[0].A.X {
		t.Fatal("translate aliased the original")
	}
}

func TestFigureLateralExtentPerSign(t *testing.T) {
	// The silhouette width ordering underpins sign separability: No
	// (diagonal, arms at 125°/55°) is the widest, Yes (steep V, arms near
	// vertical) narrower, Attention (single vertical arm) the narrowest of
	// the communicative signs.
	extent := func(s Sign) float64 {
		f, _ := NewFigure(s, Options{})
		var m float64
		for _, c := range f.Capsules {
			for _, p := range []geom.Vec3{c.A, c.B} {
				if a := math.Abs(p.X); a > m {
					m = a
				}
			}
		}
		return m
	}
	yes, no, att := extent(SignYes), extent(SignNo), extent(SignAttention)
	if !(no > yes && yes > att) {
		t.Fatalf("extent ordering violated: no=%v yes=%v att=%v", no, yes, att)
	}
	// Every communicative sign reaches clear of the torso.
	for _, s := range AllSigns() {
		if extent(s) < shoulderHalf+0.05 {
			t.Errorf("%v arms too close to torso", s)
		}
	}
}

// RotateY returns the figure rotated about the vertical (Z) axis by yaw
// radians.
func (f Figure) RotateY(yaw float64) Figure {
	s, c := math.Sincos(yaw)
	rot := func(v geom.Vec3) geom.Vec3 {
		return geom.V3(v.X*c-v.Y*s, v.X*s+v.Y*c, v.Z)
	}
	out := Figure{
		HeadCenter: rot(f.HeadCenter),
		HeadRadius: f.HeadRadius,
		Height:     f.Height,
		Capsules:   make([]Capsule, len(f.Capsules)),
	}
	for i, cp := range f.Capsules {
		out.Capsules[i] = Capsule{A: rot(cp.A), B: rot(cp.B), Radius: cp.Radius}
	}
	return out
}

// Translate returns the figure shifted by offset (to place the signaller in
// the world).
func (f Figure) Translate(offset geom.Vec3) Figure {
	out := Figure{
		HeadCenter: f.HeadCenter.Add(offset),
		HeadRadius: f.HeadRadius,
		Height:     f.Height,
		Capsules:   make([]Capsule, len(f.Capsules)),
	}
	for i, cp := range f.Capsules {
		out.Capsules[i] = Capsule{A: cp.A.Add(offset), B: cp.B.Add(offset), Radius: cp.Radius}
	}
	return out
}

// WristHeights returns the height (Z) of each hand endpoint, ordered
// left, right.
func (f Figure) WristHeights() (left, right float64) {
	// Arms are appended after the 3 torso/leg capsules, two capsules each:
	// left upper, left fore, right upper, right fore.
	const torsoParts = 3
	if len(f.Capsules) < torsoParts+4 {
		return 0, 0
	}
	left = f.Capsules[torsoParts+1].B.Z
	right = f.Capsules[torsoParts+3].B.Z
	return left, right
}
