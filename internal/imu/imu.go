// Package imu simulates the inertial sensor the paper's §II leaves as open
// work ("the integration of an appropriate sensor like an IMU to indicate
// actual flight is yet to be discussed"): a noisy accelerometer/gyro driven
// by the simulated airframe state, plus a motion detector that classifies
// the drone's gross state (grounded / hover / climb / descent / translate)
// from sensor data alone — the signal the all-round light needs so it shows
// *actual* flight, not commanded flight.
package imu

import (
	"errors"
	"math"
	"math/rand"
	"time"

	"hdc/internal/flight"
	"hdc/internal/geom"
)

// Gravity is standard gravity (m/s²).
const Gravity = 9.80665

// Sample is one IMU reading (accelerometer + gyro + barometric altimeter —
// the standard flight-controller sensor stack).
type Sample struct {
	T time.Duration
	// Accel is the specific force in the world frame (m/s²): at rest or in
	// steady hover it reads (0, 0, +g).
	Accel geom.Vec3
	// GyroZ is the yaw rate (rad/s).
	GyroZ float64
	// BaroAltM is the barometric altitude (m, noisy). Steady climb/descent
	// is invisible to an accelerometer (zero acceleration), so vertical
	// state comes from here.
	BaroAltM float64
}

// Config sets the sensor error model.
type Config struct {
	// AccelNoise is the white-noise σ on each accel axis (default 0.08 m/s²).
	AccelNoise float64
	// GyroNoise is the white-noise σ on the yaw rate (default 0.01 rad/s).
	GyroNoise float64
	// AccelBias is the (constant, per-sensor) accel bias magnitude drawn at
	// construction (default 0.05 m/s²).
	AccelBias float64
	// RotorVibration is extra accel noise while rotors run (default 0.5
	// m/s²) — the signature that separates "parked" from "hovering".
	RotorVibration float64
	// BaroNoise is the altimeter white-noise σ (default 0.12 m).
	BaroNoise float64
}

func (c Config) withDefaults() Config {
	if c.AccelNoise == 0 {
		c.AccelNoise = 0.08
	}
	if c.GyroNoise == 0 {
		c.GyroNoise = 0.01
	}
	if c.AccelBias == 0 {
		c.AccelBias = 0.05
	}
	if c.RotorVibration == 0 {
		c.RotorVibration = 0.5
	}
	if c.BaroNoise == 0 {
		c.BaroNoise = 0.12
	}
	return c
}

// IMU produces samples from airframe state transitions.
type IMU struct {
	cfg  Config
	rng  *rand.Rand
	bias geom.Vec3

	prevVel     geom.Vec3
	prevHeading geom.Heading
	primed      bool
	t           time.Duration
}

// New builds an IMU with a randomly drawn constant bias.
func New(cfg Config, rng *rand.Rand) (*IMU, error) {
	if rng == nil {
		return nil, errors.New("imu: nil rng")
	}
	cfg = cfg.withDefaults()
	dir := geom.V3(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()).Unit()
	return &IMU{
		cfg:  cfg,
		rng:  rng,
		bias: dir.Scale(cfg.AccelBias),
	}, nil
}

// Sample advances the sensor by dt given the true airframe state. rotorsOn
// switches the vibration signature.
func (i *IMU) Sample(dt float64, s flight.State, rotorsOn bool) Sample {
	i.t += time.Duration(dt * float64(time.Second))
	var accel geom.Vec3
	var gyro float64
	if i.primed && dt > 0 {
		accel = s.Vel.Sub(i.prevVel).Scale(1 / dt)
		gyro = i.prevHeading.Diff(s.Heading) / dt
	}
	i.prevVel = s.Vel
	i.prevHeading = s.Heading
	i.primed = true

	// Specific force: acceleration minus gravity (gravity points -Z, so the
	// supporting force reads +g on Z).
	sf := accel.Add(geom.V3(0, 0, Gravity))
	noise := i.cfg.AccelNoise
	if rotorsOn {
		noise = math.Hypot(noise, i.cfg.RotorVibration)
	}
	sf = sf.Add(i.bias).Add(geom.V3(
		i.rng.NormFloat64()*noise,
		i.rng.NormFloat64()*noise,
		i.rng.NormFloat64()*noise,
	))
	return Sample{
		T:        i.t,
		Accel:    sf,
		GyroZ:    gyro + i.rng.NormFloat64()*i.cfg.GyroNoise,
		BaroAltM: s.Pos.Z + i.rng.NormFloat64()*i.cfg.BaroNoise,
	}
}

// MotionState is the detector's classification.
type MotionState int

// Gross motion states, from sensor data alone.
const (
	StateUnknown MotionState = iota
	StateGrounded
	StateHover
	StateClimb
	StateDescent
	StateTranslate
)

// String implements fmt.Stringer.
func (m MotionState) String() string {
	switch m {
	case StateGrounded:
		return "grounded"
	case StateHover:
		return "hover"
	case StateClimb:
		return "climb"
	case StateDescent:
		return "descent"
	case StateTranslate:
		return "translate"
	default:
		return "unknown"
	}
}

// Detector classifies motion from a sliding window of IMU samples by
// integrating de-gravitied specific force (with decay, so bias does not run
// away) and reading the vibration level.
type Detector struct {
	// VibrationFloor separates rotors-off from rotors-on (default 0.25
	// m/s² std of the accel norm).
	VibrationFloor float64
	// SpeedFloor is the velocity magnitude below which the drone counts as
	// stationary (default 0.35 m/s).
	SpeedFloor float64
	// Decay is the per-second leak of the velocity integrator (default
	// 0.25), bounding bias-driven drift while keeping sustained cruise
	// visible for ~10 s.
	Decay float64

	vel       geom.Vec3
	noise     float64 // EW std of accel magnitude around g
	altFast   float64 // EW altitude, fast time constant
	altSlow   float64 // EW altitude, slow time constant
	baroReady bool
	primed    bool
	lastT     time.Duration
}

// Baro filter time constants: for a steady ramp input the exponential
// filters lag by rate×τ, so the vertical rate estimate is
// (fast − slow)/(τslow − τfast) with noise suppressed by both filters.
const (
	baroTauFast = 0.2 // seconds
	baroTauSlow = 1.0 // seconds
)

// NewDetector returns a detector with calibrated defaults.
func NewDetector() *Detector {
	return &Detector{VibrationFloor: 0.25, SpeedFloor: 0.35, Decay: 0.25}
}

// Push feeds one sample and returns the current classification. Horizontal
// motion comes from the leaky accel integral (an IMU cannot see steady
// velocity, so sustained cruise decays towards "hover" — physically
// honest); vertical motion comes from the filtered barometric rate, which
// does track steady climb/descent.
func (d *Detector) Push(s Sample) MotionState {
	var dt float64
	if d.primed {
		dt = (s.T - d.lastT).Seconds()
	}
	d.lastT = s.T
	d.primed = true
	if dt <= 0 {
		dt = 0.02
	}

	// De-gravity and integrate with leak (horizontal channel).
	lin := s.Accel.Sub(geom.V3(0, 0, Gravity))
	d.vel = d.vel.Scale(math.Exp(-d.Decay * dt)).Add(lin.Scale(dt))

	// Barometric vertical rate from the dual-timescale filter lag.
	if !d.baroReady {
		d.altFast = s.BaroAltM
		d.altSlow = s.BaroAltM
		d.baroReady = true
	} else {
		aF := 1 - math.Exp(-dt/baroTauFast)
		aS := 1 - math.Exp(-dt/baroTauSlow)
		d.altFast += aF * (s.BaroAltM - d.altFast)
		d.altSlow += aS * (s.BaroAltM - d.altSlow)
	}

	// Vibration estimate: EW std of |accel|-g.
	dev := math.Abs(s.Accel.Norm() - Gravity)
	const alpha = 0.05
	d.noise = (1-alpha)*d.noise + alpha*dev

	if d.noise < d.VibrationFloor {
		return StateGrounded
	}
	h := d.vel.XY().Norm()
	vz := (d.altFast - d.altSlow) / (baroTauSlow - baroTauFast)
	switch {
	case h < d.SpeedFloor && math.Abs(vz) < d.SpeedFloor:
		return StateHover
	case math.Abs(vz) >= d.SpeedFloor && math.Abs(vz) > h:
		if vz > 0 {
			return StateClimb
		}
		return StateDescent
	case h >= d.SpeedFloor:
		return StateTranslate
	default:
		return StateHover
	}
}
