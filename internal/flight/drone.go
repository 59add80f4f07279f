// Package flight simulates the drone airframe the paper's signalling rides
// on: a kinematic multicopter model with wind disturbance, a waypoint
// controller, the three standard flight patterns (vertical take-off,
// horizontal cruise, vertical landing — §III, Fig 2) and the four
// communicative patterns (poke, nod = yes, head-turn = no, rectangle = area
// request), plus the observer-side pattern classifier used to quantify how
// "unmistakable" the patterns are (E12).
package flight

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"hdc/internal/geom"
)

// Params bounds the drone's kinematics. The defaults approximate a small
// commercial hexacopter of the class the paper used.
type Params struct {
	MaxSpeed   float64 // horizontal m/s
	MaxAscent  float64 // m/s
	MaxDescent float64 // m/s (positive)
	MaxAccel   float64 // m/s²
	MaxYawRate float64 // rad/s
	CruiseAlt  float64 // default working altitude (m)
}

// DefaultParams returns the repository's standard airframe.
func DefaultParams() Params {
	return Params{
		MaxSpeed:   5,
		MaxAscent:  2.5,
		MaxDescent: 1.5,
		MaxAccel:   4,
		MaxYawRate: geom.Deg2Rad(120),
		CruiseAlt:  5,
	}
}

// Validate rejects non-positive limits.
func (p Params) Validate() error {
	if p.MaxSpeed <= 0 || p.MaxAscent <= 0 || p.MaxDescent <= 0 ||
		p.MaxAccel <= 0 || p.MaxYawRate <= 0 || p.CruiseAlt <= 0 {
		return fmt.Errorf("flight: non-positive parameter in %+v", p)
	}
	return nil
}

// State is the instantaneous kinematic state.
type State struct {
	Pos     geom.Vec3
	Vel     geom.Vec3
	Heading geom.Heading
}

// Wind is an Ornstein-Uhlenbeck gust model on the horizontal plane: a mean
// wind plus exponentially-correlated random gusts. A nil *Wind means calm
// air.
type Wind struct {
	Mean     geom.Vec2 // steady component (m/s)
	GustStd  float64   // standard deviation of the gust process (m/s)
	TauS     float64   // gust correlation time (s), default 2
	gust     geom.Vec2
	rng      *rand.Rand
	prepared bool
}

// NewWind builds a gust model; rng must be non-nil when gustStd > 0.
func NewWind(mean geom.Vec2, gustStd float64, rng *rand.Rand) (*Wind, error) {
	if gustStd > 0 && rng == nil {
		return nil, errors.New("flight: gusty wind needs a rand source")
	}
	return &Wind{Mean: mean, GustStd: gustStd, TauS: 2, rng: rng}, nil
}

// Sample advances the gust process by dt and returns the total wind vector.
func (w *Wind) Sample(dt float64) geom.Vec2 {
	if w == nil {
		return geom.Vec2{}
	}
	if w.GustStd > 0 && w.rng != nil {
		if !w.prepared {
			w.gust = geom.V2(w.rng.NormFloat64(), w.rng.NormFloat64()).Scale(w.GustStd)
			w.prepared = true
		}
		tau := w.TauS
		if tau <= 0 {
			tau = 2
		}
		a := math.Exp(-dt / tau)
		s := w.GustStd * math.Sqrt(1-a*a)
		w.gust = w.gust.Scale(a).Add(geom.V2(w.rng.NormFloat64(), w.rng.NormFloat64()).Scale(s))
	}
	return w.Mean.Add(w.gust)
}

// Drone is the kinematic simulator. Not safe for concurrent use.
type Drone struct {
	P    Params
	S    State
	Wind *Wind

	rotorsOn bool
}

// New creates a drone parked at pos with rotors off.
func New(p Params, pos geom.Vec3) (*Drone, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Drone{P: p, S: State{Pos: pos}}, nil
}

// RotorsOn reports rotor state.
func (d *Drone) RotorsOn() bool { return d.rotorsOn }

// StartRotors spins up; required before any motion.
func (d *Drone) StartRotors() { d.rotorsOn = true }

// groundTolerance is how close to the ground the drone must be before the
// rotors may stop — skids compress by a few centimetres on touchdown.
const groundTolerance = 0.08

// StopRotors shuts down. It returns an error if the drone is airborne —
// stopping rotors in flight is exactly the kind of hazard the paper's
// safety-first framing exists to avoid. On success the drone settles onto
// the ground.
func (d *Drone) StopRotors() error {
	if d.S.Pos.Z > groundTolerance {
		return fmt.Errorf("flight: refusing rotor stop at %.2f m altitude", d.S.Pos.Z)
	}
	d.rotorsOn = false
	d.S.Vel = geom.Vec3{}
	d.S.Pos.Z = 0
	return nil
}

// Step advances the simulation by dt seconds towards the commanded velocity
// (world frame) and yaw rate, honouring acceleration and rate limits and
// wind. With rotors off the drone stays put.
func (d *Drone) Step(dt float64, cmdVel geom.Vec3, cmdYawRate float64) {
	if dt <= 0 || !d.rotorsOn {
		return
	}
	// Clamp commanded velocity to performance limits.
	h := cmdVel.XY()
	if n := h.Norm(); n > d.P.MaxSpeed {
		h = h.Scale(d.P.MaxSpeed / n)
	}
	vz := geom.Clamp(cmdVel.Z, -d.P.MaxDescent, d.P.MaxAscent)
	want := geom.V3(h.X, h.Y, vz)

	// Acceleration limit.
	dv := want.Sub(d.S.Vel)
	if n := dv.Norm(); n > d.P.MaxAccel*dt {
		dv = dv.Scale(d.P.MaxAccel * dt / n)
	}
	d.S.Vel = d.S.Vel.Add(dv)

	// Wind advects the airframe.
	wind := d.Wind.Sample(dt)
	ground := d.S.Vel.Add(geom.V3(wind.X, wind.Y, 0))

	d.S.Pos = d.S.Pos.Add(ground.Scale(dt))
	if d.S.Pos.Z < 0 {
		d.S.Pos.Z = 0
		if d.S.Vel.Z < 0 {
			d.S.Vel.Z = 0
		}
	}

	// Yaw.
	yr := geom.Clamp(cmdYawRate, -d.P.MaxYawRate, d.P.MaxYawRate)
	d.S.Heading = d.S.Heading.Add(yr * dt)
}

// velocityTowards computes a braking-aware velocity command to approach a
// waypoint: full speed far out, proportional inside the braking distance.
func (d *Drone) velocityTowards(target geom.Vec3, speed float64) geom.Vec3 {
	delta := target.Sub(d.S.Pos)
	dist := delta.Norm()
	if dist < 1e-9 {
		return geom.Vec3{}
	}
	// Braking distance v²/(2a) with margin.
	v := speed
	brake := math.Sqrt(2 * d.P.MaxAccel * dist * 0.7)
	if brake < v {
		v = brake
	}
	return delta.Scale(v / dist)
}

// FlyTo runs the waypoint controller until the drone is within tol of
// target or maxDur elapses, stepping at dt and recording the trajectory
// into rec (which may be nil). It reports whether the waypoint was reached.
func (d *Drone) FlyTo(target geom.Vec3, speed, dt, maxDur, tol float64, rec *Recorder) bool {
	if speed <= 0 || speed > d.P.MaxSpeed {
		speed = d.P.MaxSpeed
	}
	steps := int(maxDur / dt)
	for i := 0; i < steps; i++ {
		if d.S.Pos.Dist(target) <= tol {
			return true
		}
		cmd := d.velocityTowards(target, speed)
		// Point the nose along horizontal motion when moving.
		var yawRate float64
		if h := cmd.XY(); h.Norm() > 0.3 {
			desired := geom.HeadingOf(h)
			yawRate = geom.Clamp(d.S.Heading.Diff(desired)*3, -d.P.MaxYawRate, d.P.MaxYawRate)
		}
		d.Step(dt, cmd, yawRate)
		rec.Record(dt, d.S)
	}
	return d.S.Pos.Dist(target) <= tol
}
