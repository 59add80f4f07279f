// Package body models the human signaller: an articulated skeleton whose
// limb capsules realise the paper's three static marshalling signs
// (AttentionGained, Yes, No — §III, Fig 3). The model is deliberately planar
// — a signaller facing the drone — embedded in 3-D so that viewing it from a
// relative azimuth forshortens the silhouette exactly the way the paper's
// real footage does (the source of the 65° limit and the ~100° dead angle).
package body

import (
	"fmt"
	"math"

	"hdc/internal/geom"
)

// Sign enumerates the paper's marshalling signs plus the neutral stance.
// Enums start at 1 so the zero value is invalid (catches uninitialised use).
type Sign int

// The signs of the paper's §III minimum set.
const (
	// SignIdle is the neutral stance (arms down); not a communication sign.
	SignIdle Sign = iota + 1
	// SignAttention is "attention gained": one hand raised before the face,
	// the human-reflex protective gesture the paper derives it from.
	SignAttention
	// SignYes grants the drone's request: both arms raised in a Y, after the
	// Swiss emergency-services "yes/need help" signal.
	SignYes
	// SignNo denies the request: one arm up, the opposite arm down, forming
	// a diagonal, after the Swiss emergency-services "no" signal.
	SignNo
)

// AllSigns lists the three communicative signs (excluding Idle).
func AllSigns() []Sign { return []Sign{SignAttention, SignYes, SignNo} }

// String implements fmt.Stringer.
func (s Sign) String() string {
	switch s {
	case SignIdle:
		return "Idle"
	case SignAttention:
		return "Attention"
	case SignYes:
		return "Yes"
	case SignNo:
		return "No"
	default:
		return fmt.Sprintf("Sign(%d)", int(s))
	}
}

// Valid reports whether s is a defined sign.
func (s Sign) Valid() bool { return s >= SignIdle && s <= SignNo }

// Capsule is a thick line segment in 3-D body space: a limb or torso part.
type Capsule struct {
	A, B   geom.Vec3 // endpoints in body frame (meters)
	Radius float64   // half-width (meters)
}

// Figure is a posed signaller: a set of capsules plus a head sphere, in the
// body frame (origin between the feet, X lateral (signaller's left is +X),
// Y towards the viewer at azimuth 0, Z up).
type Figure struct {
	Capsules   []Capsule
	HeadCenter geom.Vec3
	HeadRadius float64
	Height     float64 // stature in meters
}

// Dimensions of the default adult signaller (meters). Proportions follow
// standard anthropometric ratios for a 1.75 m adult.
const (
	defaultHeight   = 1.75
	hipHeight       = 0.95
	shoulderHeight  = 1.45
	shoulderHalf    = 0.20
	headRadius      = 0.11
	neckGap         = 0.04
	torsoRadius     = 0.16
	upperArmLen     = 0.30
	forearmLen      = 0.28
	armRadius       = 0.05
	legRadius       = 0.08
	footSpreadHips  = 0.05
	footSpreadFloor = 0.07
)

// armSpec gives one arm's pose: angles measured in the body plane (X–Z),
// in degrees, where 0 points straight down and positive rotates outwards
// (away from the torso) and then up; 180 is straight up.
type armSpec struct {
	shoulderDeg float64 // upper-arm direction
	elbowDeg    float64 // forearm direction (absolute, same convention)
}

// poseSpec is the full articulation for one sign.
type poseSpec struct {
	left  armSpec // signaller's left arm (+X side)
	right armSpec // signaller's right arm (−X side)
}

// poses encodes the sign language. Angles chosen so that the rendered
// silhouettes match the paper's figures: Attention = single vertical arm,
// Yes = symmetric Y, No = one-up-one-down diagonal.
// Marshalling signs are deliberately wide gestures — arms held well clear of
// the torso — precisely so the silhouette lobes survive oblique viewing.
// The angles below keep every communicating arm ≥ 55° away from the body
// axis, which is what carries recognition out to the paper's 65° azimuth
// before self-occlusion merges the lobes.
var poses = map[Sign]poseSpec{
	SignIdle: {
		left:  armSpec{shoulderDeg: 12, elbowDeg: 8},
		right: armSpec{shoulderDeg: 12, elbowDeg: 8},
	},
	SignAttention: {
		// Right hand raised straight up before the face; left arm down.
		left:  armSpec{shoulderDeg: 12, elbowDeg: 8},
		right: armSpec{shoulderDeg: 168, elbowDeg: 174},
	},
	SignYes: {
		// Both arms raised steeply above the head: the Y of the Swiss
		// "yes" signal, held close to vertical so the two hand lobes stay
		// clear of each other (and of the head) even at high relative
		// azimuth.
		left:  armSpec{shoulderDeg: 150, elbowDeg: 156},
		right: armSpec{shoulderDeg: 150, elbowDeg: 156},
	},
	SignNo: {
		// Left arm up-out, right arm down-out: the diagonal "no".
		left:  armSpec{shoulderDeg: 125, elbowDeg: 128},
		right: armSpec{shoulderDeg: 55, elbowDeg: 52},
	},
}

// Options tweaks figure construction.
type Options struct {
	// HeightScale scales the whole figure (1 = 1.75 m adult). Zero means 1.
	HeightScale float64
	// ArmJitterDeg perturbs every arm angle by the given amount (degrees);
	// used to model imprecise signalling by partially trained humans.
	ArmJitterDeg float64
}

// ArmPose is a public arm articulation, used by the dynamic-gesture
// extension to animate arbitrary in-between poses.
type ArmPose struct {
	// ShoulderDeg is the upper-arm direction: 0 points straight down,
	// positive rotates outwards then up, 180 straight up.
	ShoulderDeg float64
	// ElbowDeg is the forearm direction in the same convention.
	ElbowDeg float64
}

// Lerp interpolates between two arm poses (t = 0 -> a, t = 1 -> b).
func (a ArmPose) Lerp(b ArmPose, t float64) ArmPose {
	return ArmPose{
		ShoulderDeg: a.ShoulderDeg + (b.ShoulderDeg-a.ShoulderDeg)*t,
		ElbowDeg:    a.ElbowDeg + (b.ElbowDeg-a.ElbowDeg)*t,
	}
}

// NewFigurePose builds a signaller with explicit arm articulation — the
// entry point for dynamic gestures.
func NewFigurePose(left, right ArmPose, opts Options) Figure {
	scale := opts.HeightScale
	if scale == 0 {
		scale = 1
	}
	jl := armSpec{
		shoulderDeg: left.ShoulderDeg + opts.ArmJitterDeg,
		elbowDeg:    left.ElbowDeg + opts.ArmJitterDeg,
	}
	jr := armSpec{
		shoulderDeg: right.ShoulderDeg - opts.ArmJitterDeg,
		elbowDeg:    right.ElbowDeg - opts.ArmJitterDeg,
	}
	return buildFigure(jl, jr, scale)
}

// NewFigure builds the posed signaller for a sign. Jitter is deterministic
// per the caller-provided values; randomness is injected by callers (the
// human behaviour model), keeping this package pure.
func NewFigure(s Sign, opts Options) (Figure, error) {
	if !s.Valid() {
		return Figure{}, fmt.Errorf("body: invalid sign %d", int(s))
	}
	scale := opts.HeightScale
	if scale == 0 {
		scale = 1
	}
	p := poses[s]
	jl := armSpec{
		shoulderDeg: p.left.shoulderDeg + opts.ArmJitterDeg,
		elbowDeg:    p.left.elbowDeg + opts.ArmJitterDeg,
	}
	jr := armSpec{
		shoulderDeg: p.right.shoulderDeg - opts.ArmJitterDeg,
		elbowDeg:    p.right.elbowDeg - opts.ArmJitterDeg,
	}
	return buildFigure(jl, jr, scale), nil
}

// buildFigure assembles the capsule skeleton for the given arm specs.
func buildFigure(jl, jr armSpec, scale float64) Figure {
	f := Figure{Height: defaultHeight * scale}
	sc := func(v geom.Vec3) geom.Vec3 { return v.Scale(scale) }

	hip := geom.V3(0, 0, hipHeight)
	neck := geom.V3(0, 0, shoulderHeight)
	f.Capsules = append(f.Capsules,
		// Torso.
		Capsule{A: sc(hip), B: sc(neck), Radius: torsoRadius * scale},
		// Legs.
		Capsule{
			A: sc(geom.V3(footSpreadHips, 0, hipHeight)),
			B: sc(geom.V3(footSpreadFloor, 0, 0)), Radius: legRadius * scale,
		},
		Capsule{
			A: sc(geom.V3(-footSpreadHips, 0, hipHeight)),
			B: sc(geom.V3(-footSpreadFloor, 0, 0)), Radius: legRadius * scale,
		},
	)
	f.Capsules = append(f.Capsules, armCapsules(+1, jl, scale)...)
	f.Capsules = append(f.Capsules, armCapsules(-1, jr, scale)...)

	f.HeadCenter = sc(geom.V3(0, 0, shoulderHeight+neckGap+headRadius))
	f.HeadRadius = headRadius * scale
	return f
}

// armCapsules builds the two-segment arm on the given side (+1 left, −1
// right in body frame).
func armCapsules(side float64, spec armSpec, scale float64) []Capsule {
	shoulder := geom.V3(side*shoulderHalf, 0, shoulderHeight)
	dir := func(deg float64) geom.Vec3 {
		// 0° points down; rotation is outwards (towards ±X) then up.
		rad := geom.Deg2Rad(deg)
		return geom.V3(side*math.Sin(rad), 0, -math.Cos(rad))
	}
	elbow := shoulder.Add(dir(spec.shoulderDeg).Scale(upperArmLen))
	hand := elbow.Add(dir(spec.elbowDeg).Scale(forearmLen))
	return []Capsule{
		{A: shoulder.Scale(scale), B: elbow.Scale(scale), Radius: armRadius * scale},
		{A: elbow.Scale(scale), B: hand.Scale(scale), Radius: armRadius * scale},
	}
}
