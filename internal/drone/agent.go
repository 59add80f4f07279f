// Package drone integrates the airframe (internal/flight), the all-round
// light (internal/ledring) and a safety monitor into the autonomous agent
// the paper's scenario needs: the light tracks the direction of controlled
// flight per §II, danger mode is the default and any safety trigger
// (battery, geofence, human separation) reverts to it, and the Fig 2
// landing sequence — touch down, rotors off, THEN lights out — is enforced
// in code.
package drone

import (
	"errors"
	"fmt"
	"time"

	"hdc/internal/flight"
	"hdc/internal/geom"
	"hdc/internal/ledring"
	"hdc/internal/telemetry"
)

// SafetyLimits configures the monitor.
type SafetyLimits struct {
	// MinBatteryFrac aborts below this state of charge (default 0.15).
	MinBatteryFrac float64
	// GeofenceRadius is the max horizontal distance from home (default 200 m).
	GeofenceRadius float64
	// MinSeparation is the closest approach to any human before the danger
	// display trips (default 1.5 m) — the "boundaries of a safe distance"
	// at which the paper has the drone stop and poke.
	MinSeparation float64
}

func (s SafetyLimits) withDefaults() SafetyLimits {
	if s.MinBatteryFrac == 0 {
		s.MinBatteryFrac = 0.15
	}
	if s.GeofenceRadius == 0 {
		s.GeofenceRadius = 200
	}
	if s.MinSeparation == 0 {
		s.MinSeparation = 1.5
	}
	return s
}

// Config assembles an Agent.
type Config struct {
	Flight  flight.Params
	Ring    ledring.Options
	Safety  SafetyLimits
	Home    geom.Vec3
	Battery BatteryModel
}

// BatteryModel is a linear discharge model.
type BatteryModel struct {
	// CapacityWh is the pack size (default 100 Wh).
	CapacityWh float64
	// HoverDrawW is the steady hover power (default 180 W).
	HoverDrawW float64
	// SpeedDrawWPerMS adds draw proportional to airspeed (default 15 W per
	// m/s).
	SpeedDrawWPerMS float64
}

func (b BatteryModel) withDefaults() BatteryModel {
	if b.CapacityWh == 0 {
		b.CapacityWh = 100
	}
	if b.HoverDrawW == 0 {
		b.HoverDrawW = 180
	}
	if b.SpeedDrawWPerMS == 0 {
		b.SpeedDrawWPerMS = 15
	}
	return b
}

// Agent is the integrated drone. Not safe for concurrent use.
type Agent struct {
	D    *flight.Drone
	Ring *ledring.Ring
	Exec *flight.Executor
	Log  *telemetry.Log

	safety    SafetyLimits
	battery   BatteryModel
	chargeWh  float64
	home      geom.Vec3
	clock     time.Duration
	tripped   bool
	tripCause string
	humans    []geom.Vec2
	sepWaived bool
}

// New assembles an agent parked at cfg.Home with a full battery and the
// ring in its danger default.
func New(cfg Config, log *telemetry.Log) (*Agent, error) {
	if log == nil {
		log = telemetry.NewLog()
	}
	if cfg.Flight == (flight.Params{}) {
		cfg.Flight = flight.DefaultParams()
	}
	d, err := flight.New(cfg.Flight, cfg.Home)
	if err != nil {
		return nil, err
	}
	ring, err := ledring.New(cfg.Ring)
	if err != nil {
		return nil, err
	}
	bm := cfg.Battery.withDefaults()
	a := &Agent{
		D:        d,
		Ring:     ring,
		Exec:     flight.NewExecutor(d),
		Log:      log,
		safety:   cfg.Safety.withDefaults(),
		battery:  bm,
		chargeWh: bm.CapacityWh,
		home:     cfg.Home,
	}
	return a, nil
}

// Clock returns the agent's simulation time.
func (a *Agent) Clock() time.Duration { return a.clock }

// BatteryFrac returns the state of charge in [0, 1].
func (a *Agent) BatteryFrac() float64 { return a.chargeWh / a.battery.CapacityWh }

// SetHumans updates the positions of nearby humans for separation checks.
func (a *Agent) SetHumans(pos []geom.Vec2) {
	a.humans = append(a.humans[:0], pos...)
}

// WaiveSeparation suspends the human-separation trigger (used while a
// negotiated entry is in progress — the human GRANTED the approach).
func (a *Agent) WaiveSeparation(on bool) { a.sepWaived = on }

// ErrSafetyTripped is returned by flight commands after a trigger fired.
var ErrSafetyTripped = errors.New("drone: safety monitor tripped")

// trip latches a safety cause and raises the danger display.
func (a *Agent) trip(cause string) {
	if !a.tripped {
		a.Log.Emit(a.clock, "drone", "danger", cause)
	}
	a.tripped = true
	a.tripCause = cause
	a.Ring.SetDanger()
}

// checkSafety evaluates all triggers once.
func (a *Agent) checkSafety() {
	if a.BatteryFrac() < a.safety.MinBatteryFrac {
		a.trip(fmt.Sprintf("battery %.0f%%", a.BatteryFrac()*100))
		return
	}
	if a.D.S.Pos.XY().Dist(a.home.XY()) > a.safety.GeofenceRadius {
		a.trip("geofence breach")
		return
	}
	if !a.sepWaived && a.D.S.Pos.Z > 0.2 {
		for _, h := range a.humans {
			if a.D.S.Pos.XY().Dist(h) < a.safety.MinSeparation {
				a.trip(fmt.Sprintf("separation %.1f m", a.D.S.Pos.XY().Dist(h)))
				return
			}
		}
	}
}

// tick advances battery and safety by dt and refreshes the navigation
// display from the current motion (the IMU-coupled display of §II).
func (a *Agent) tick(dt float64) {
	a.clock += time.Duration(dt * float64(time.Second))
	if a.D.RotorsOn() {
		draw := a.battery.HoverDrawW + a.battery.SpeedDrawWPerMS*a.D.S.Vel.Norm()
		a.chargeWh -= draw * dt / 3600
		if a.chargeWh < 0 {
			a.chargeWh = 0
		}
	}
	a.checkSafety()
	if a.tripped {
		return // danger display latched
	}
	// Navigation display: show the direction of controlled flight while
	// moving horizontally; hovering or vertical transit keeps the previous
	// direction (vertical phases are signalled by patterns, §II).
	if h := a.D.S.Vel.XY(); a.D.RotorsOn() && h.Norm() > 0.5 {
		a.Ring.SetNavigation(geom.HeadingOf(h))
	}
}

// FlyPattern executes a flight pattern with ring coupling and safety
// ticking. It returns ErrSafetyTripped (wrapped) if a trigger fires before
// or during the pattern.
func (a *Agent) FlyPattern(p flight.Pattern, target geom.Vec3) (flight.Trajectory, error) {
	if a.tripped {
		return nil, fmt.Errorf("%w: %s", ErrSafetyTripped, a.tripCause)
	}
	switch p {
	case flight.PatternTakeOff:
		// Navigation display comes on with the rotors.
		a.Ring.SetNavigation(a.D.S.Heading)
		a.Log.Emit(a.clock, "drone", "take-off", "")
	case flight.PatternLand:
		a.Log.Emit(a.clock, "drone", "landing", "")
	}
	tr, err := a.Exec.Fly(p, target)
	// Advance the agent clock by the pattern's duration and account the
	// battery/safety along the way (coarse per-second ticks).
	dur := tr.Duration()
	for t := 0.0; t < dur; t += 1 {
		a.tick(minF(1, dur-t))
		if a.tripped {
			return tr, fmt.Errorf("%w: %s", ErrSafetyTripped, a.tripCause)
		}
	}
	if err != nil {
		return tr, err
	}
	if p == flight.PatternLand {
		// Fig 2 sequence: touchdown (Fly already stopped the rotors) and
		// only then extinguish the lights.
		a.Log.Emit(a.clock, "drone", "touchdown", "")
		a.Log.Emit(a.clock, "drone", "rotors-off", "")
		a.Ring.SetOff()
		a.Log.Emit(a.clock, "drone", "lights-off", "")
	}
	return tr, nil
}

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
