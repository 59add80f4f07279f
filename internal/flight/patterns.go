package flight

import (
	"errors"
	"fmt"
	"math"

	"hdc/internal/geom"
)

// Pattern enumerates the paper's §III flight patterns: three standard and
// four communicative. Enums start at 1 so the zero value is invalid.
type Pattern int

// The pattern vocabulary.
const (
	// PatternTakeOff is the standard vertical lift-off to flying height.
	PatternTakeOff Pattern = iota + 1
	// PatternCruise is standard horizontal flight at working altitude.
	PatternCruise
	// PatternLand is the standard vertical landing (Fig 2).
	PatternLand
	// PatternPoke is the attention-getting approach: a short lunge towards
	// the collaborator and back, repeated.
	PatternPoke
	// PatternNod is the drone's "yes": vertical bobbing in place.
	PatternNod
	// PatternHeadTurn is the drone's "no": yaw oscillation in place.
	PatternHeadTurn
	// PatternRectangle requests the collaborator's area: the drone traces a
	// horizontal rectangle outlining the space it wants to occupy (Fig 3).
	PatternRectangle
)

// Patterns lists all seven defined patterns.
func Patterns() []Pattern {
	return []Pattern{
		PatternTakeOff, PatternCruise, PatternLand,
		PatternPoke, PatternNod, PatternHeadTurn, PatternRectangle,
	}
}

// CommunicativePatterns lists the four communicative patterns.
func CommunicativePatterns() []Pattern {
	return []Pattern{PatternPoke, PatternNod, PatternHeadTurn, PatternRectangle}
}

// String implements fmt.Stringer.
func (p Pattern) String() string {
	switch p {
	case PatternTakeOff:
		return "TakeOff"
	case PatternCruise:
		return "Cruise"
	case PatternLand:
		return "Land"
	case PatternPoke:
		return "Poke"
	case PatternNod:
		return "Nod"
	case PatternHeadTurn:
		return "HeadTurn"
	case PatternRectangle:
		return "Rectangle"
	default:
		return fmt.Sprintf("Pattern(%d)", int(p))
	}
}

// Valid reports whether p is a defined pattern.
func (p Pattern) Valid() bool { return p >= PatternTakeOff && p <= PatternRectangle }

// Sample is one trajectory sample.
type Sample struct {
	T       float64 // seconds since trajectory start
	Pos     geom.Vec3
	Heading geom.Heading
}

// Trajectory is a time-ordered series of samples.
type Trajectory []Sample

// Duration returns the time span of the trajectory.
func (tr Trajectory) Duration() float64 {
	if len(tr) == 0 {
		return 0
	}
	return tr[len(tr)-1].T - tr[0].T
}

// Recorder accumulates trajectory samples. A nil *Recorder discards.
type Recorder struct {
	t   float64
	buf Trajectory
}

// Record appends the state after a step of dt.
func (r *Recorder) Record(dt float64, s State) {
	if r == nil {
		return
	}
	r.t += dt
	r.buf = append(r.buf, Sample{T: r.t, Pos: s.Pos, Heading: s.Heading})
}

// Trajectory returns the recorded samples.
func (r *Recorder) Trajectory() Trajectory {
	if r == nil {
		return nil
	}
	return r.buf
}

// Executor flies patterns on a drone and records their trajectories.
type Executor struct {
	D *Drone
	// DT is the simulation step (default 0.05 s).
	DT float64
	// NodAmplitude is the vertical bob half-height (default 0.5 m).
	NodAmplitude float64
	// TurnAmplitude is the yaw swing half-angle (default 60°).
	TurnAmplitude float64
	// PokeDepth is the lunge distance towards the target (default 1 m).
	PokeDepth float64
	// RectW, RectH are the rectangle dimensions (defaults 4 × 2 m).
	RectW, RectH float64
	// Cycles is the repetition count of oscillating patterns (default 3).
	Cycles int
}

// NewExecutor wraps a drone with default pattern parameters.
func NewExecutor(d *Drone) *Executor {
	return &Executor{
		D: d, DT: 0.05,
		NodAmplitude: 0.5, TurnAmplitude: geom.Deg2Rad(60),
		PokeDepth: 1.0, RectW: 4, RectH: 2, Cycles: 3,
	}
}

// ErrNotAirborne is returned for patterns that need the drone flying.
var ErrNotAirborne = errors.New("flight: pattern requires an airborne drone")

// Fly executes the pattern and returns its trajectory. target is the
// pattern's reference point: the collaborator's position for Poke and
// Rectangle, the destination for Cruise; it is ignored for the others.
func (e *Executor) Fly(p Pattern, target geom.Vec3) (Trajectory, error) {
	if !p.Valid() {
		return nil, fmt.Errorf("flight: invalid pattern %d", int(p))
	}
	rec := &Recorder{}
	d := e.D
	dt := e.DT
	if dt <= 0 {
		dt = 0.05
	}
	switch p {
	case PatternTakeOff:
		if d.S.Pos.Z > 0.05 {
			return nil, errors.New("flight: take-off from mid-air")
		}
		d.StartRotors()
		up := geom.V3(d.S.Pos.X, d.S.Pos.Y, d.P.CruiseAlt)
		if !d.FlyTo(up, d.P.MaxAscent, dt, 60, 0.1, rec) {
			return rec.Trajectory(), errors.New("flight: take-off did not reach altitude")
		}

	case PatternCruise:
		if err := e.requireAirborne(); err != nil {
			return nil, err
		}
		dest := geom.V3(target.X, target.Y, d.P.CruiseAlt)
		if !d.FlyTo(dest, d.P.MaxSpeed, dt, 300, 0.25, rec) {
			return rec.Trajectory(), errors.New("flight: cruise did not arrive")
		}

	case PatternLand:
		if err := e.requireAirborne(); err != nil {
			return nil, err
		}
		down := geom.V3(d.S.Pos.X, d.S.Pos.Y, 0)
		if !d.FlyTo(down, d.P.MaxDescent, dt, 120, 0.05, rec) {
			return rec.Trajectory(), errors.New("flight: landing did not touch down")
		}
		if err := d.StopRotors(); err != nil {
			return rec.Trajectory(), err
		}

	case PatternPoke:
		if err := e.requireAirborne(); err != nil {
			return nil, err
		}
		home := d.S.Pos
		dir := target.Sub(home)
		dir.Z = 0
		if dir.Norm() < 1e-6 {
			return nil, errors.New("flight: poke target coincides with drone")
		}
		lunge := home.Add(dir.Unit().Scale(e.PokeDepth))
		for c := 0; c < e.cycles(); c++ {
			d.FlyTo(lunge, d.P.MaxSpeed, dt, 10, 0.15, rec)
			d.FlyTo(home, d.P.MaxSpeed, dt, 10, 0.15, rec)
		}

	case PatternNod:
		if err := e.requireAirborne(); err != nil {
			return nil, err
		}
		base := d.S.Pos
		up := base.Add(geom.V3(0, 0, e.NodAmplitude))
		dn := base.Sub(geom.V3(0, 0, e.NodAmplitude))
		for c := 0; c < e.cycles(); c++ {
			d.FlyTo(up, d.P.MaxAscent, dt, 5, 0.1, rec)
			d.FlyTo(dn, d.P.MaxDescent, dt, 5, 0.1, rec)
		}
		// The return leg arrives from below, so a loose tolerance would
		// leave each nod lower than the last: it ends at its start altitude.
		d.FlyTo(base, d.P.MaxAscent, dt, 5, 0.001, rec)

	case PatternHeadTurn:
		if err := e.requireAirborne(); err != nil {
			return nil, err
		}
		base := d.S.Heading
		for c := 0; c < e.cycles(); c++ {
			e.yawTo(base.Add(e.TurnAmplitude), dt, rec)
			e.yawTo(base.Add(-e.TurnAmplitude), dt, rec)
		}
		e.yawTo(base, dt, rec)

	case PatternRectangle:
		if err := e.requireAirborne(); err != nil {
			return nil, err
		}
		// Trace a rectangle centred over the target area at current
		// altitude, then return to the start corner.
		alt := d.S.Pos.Z
		cx, cy := target.X, target.Y
		corners := []geom.Vec3{
			{X: cx - e.RectW/2, Y: cy - e.RectH/2, Z: alt},
			{X: cx + e.RectW/2, Y: cy - e.RectH/2, Z: alt},
			{X: cx + e.RectW/2, Y: cy + e.RectH/2, Z: alt},
			{X: cx - e.RectW/2, Y: cy + e.RectH/2, Z: alt},
		}
		start := d.S.Pos
		for _, c := range corners {
			if !d.FlyTo(c, d.P.MaxSpeed/2, dt, 30, 0.2, rec) {
				return rec.Trajectory(), errors.New("flight: rectangle corner unreachable")
			}
		}
		d.FlyTo(corners[0], d.P.MaxSpeed/2, dt, 30, 0.2, rec)
		d.FlyTo(start, d.P.MaxSpeed/2, dt, 30, 0.2, rec)
	}
	return rec.Trajectory(), nil
}

func (e *Executor) cycles() int {
	if e.Cycles < 1 {
		return 3
	}
	return e.Cycles
}

func (e *Executor) requireAirborne() error {
	if !e.D.RotorsOn() || e.D.S.Pos.Z < 0.3 {
		return ErrNotAirborne
	}
	return nil
}

// yawTo rotates in place to the desired heading while actively holding
// position against wind.
func (e *Executor) yawTo(want geom.Heading, dt float64, rec *Recorder) {
	d := e.D
	anchor := d.S.Pos
	for i := 0; i < int(10/dt); i++ {
		diff := d.S.Heading.Diff(want)
		if math.Abs(diff) < geom.Deg2Rad(2) {
			return
		}
		hold := d.velocityTowards(anchor, d.P.MaxSpeed/2)
		d.Step(dt, hold, geom.Clamp(diff*4, -d.P.MaxYawRate, d.P.MaxYawRate))
		rec.Record(dt, d.S)
	}
}
