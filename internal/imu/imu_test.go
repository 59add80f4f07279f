package imu

import (
	"math"
	"math/rand"
	"testing"

	"hdc/internal/flight"
	"hdc/internal/geom"
)

func newIMU(t testing.TB, seed int64) *IMU {
	t.Helper()
	i, err := New(Config{}, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return i
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}, nil); err == nil {
		t.Fatal("nil rng should fail")
	}
}

func TestSampleAtRestReadsGravity(t *testing.T) {
	i := newIMU(t, 1)
	var mean geom.Vec3
	const n = 500
	s := flight.State{}
	for k := 0; k < n; k++ {
		smp := i.Sample(0.02, s, false)
		mean = mean.Add(smp.Accel)
	}
	mean = mean.Scale(1.0 / n)
	if math.Abs(mean.Z-Gravity) > 0.2 {
		t.Fatalf("rest Z accel %v, want ≈%v", mean.Z, Gravity)
	}
	if mean.XY().Norm() > 0.2 {
		t.Fatalf("rest lateral accel %v, want ≈0", mean.XY())
	}
}

func TestVibrationSignature(t *testing.T) {
	i := newIMU(t, 2)
	s := flight.State{Pos: geom.V3(0, 0, 5)}
	varOf := func(rotors bool) float64 {
		var sum, sumsq float64
		const n = 400
		for k := 0; k < n; k++ {
			dev := i.Sample(0.02, s, rotors).Accel.Norm() - Gravity
			sum += dev
			sumsq += dev * dev
		}
		return sumsq/n - (sum/n)*(sum/n)
	}
	off := varOf(false)
	on := varOf(true)
	if on < off*4 {
		t.Fatalf("rotor vibration not distinguishable: off=%v on=%v", off, on)
	}
}

func TestGyroTracksYaw(t *testing.T) {
	i := newIMU(t, 3)
	s := flight.State{Heading: geom.North}
	i.Sample(0.02, s, true)               // prime
	s.Heading = s.Heading.Add(0.02 * 1.5) // 1.5 rad/s for one step
	smp := i.Sample(0.02, s, true)
	if math.Abs(smp.GyroZ-1.5) > 0.2 {
		t.Fatalf("gyro %v, want ≈1.5", smp.GyroZ)
	}
}

// TestDetectorAgainstGroundTruth flies a full mission profile and checks
// the detector's classification matches the airframe's true gross state in
// a strong majority of samples — the §II "indicate actual flight"
// requirement from sensors alone.
func TestDetectorAgainstGroundTruth(t *testing.T) {
	d, err := flight.New(flight.DefaultParams(), geom.V3(0, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	sensor := newIMU(t, 4)
	det := NewDetector()

	const dt = 0.02
	type phase struct {
		name   string
		truth  MotionState
		run    func()
		warmup int // samples to let the detector settle
	}
	step := func(cmd geom.Vec3) func() {
		return func() { d.Step(dt, cmd, 0) }
	}
	phases := []phase{
		{"parked", StateGrounded, func() {}, 10},
		{"climb", StateClimb, step(geom.V3(0, 0, 2)), 60},
		{"hover", StateHover, step(geom.Vec3{}), 150},
		{"translate", StateTranslate, step(geom.V3(4, 0, 0)), 80},
		{"descent", StateDescent, step(geom.V3(0, 0, -1.5)), 150},
	}
	for pi, ph := range phases {
		if pi == 1 {
			d.StartRotors()
		}
		correct, total := 0, 0
		for k := 0; k < 350; k++ {
			ph.run()
			smp := sensor.Sample(dt, d.S, d.RotorsOn())
			got := det.Push(smp)
			if k < ph.warmup {
				continue
			}
			total++
			if got == ph.truth {
				correct++
			}
		}
		if frac := float64(correct) / float64(total); frac < 0.65 {
			t.Errorf("phase %s: detector agreement %.2f < 0.65", ph.name, frac)
		}
	}
}

func TestDetectorReset(t *testing.T) {
	det := NewDetector()
	det.Push(Sample{Accel: geom.V3(5, 0, Gravity)})
	if det.Velocity() == (geom.Vec3{}) {
		t.Fatal("velocity should have integrated")
	}
	det.Reset()
	if det.Velocity() != (geom.Vec3{}) {
		t.Fatal("reset failed")
	}
}

func TestMotionStateStrings(t *testing.T) {
	for _, m := range []MotionState{StateUnknown, StateGrounded, StateHover, StateClimb, StateDescent, StateTranslate} {
		if m.String() == "" {
			t.Fatal("empty state string")
		}
	}
}

func TestDetectorBiasBounded(t *testing.T) {
	// A long stationary hover must not drift into a motion state: the leaky
	// integrator bounds constant-bias drift.
	sensor := newIMU(t, 6)
	det := NewDetector()
	s := flight.State{Pos: geom.V3(0, 0, 5)}
	misfires := 0
	const n = 3000
	for k := 0; k < n; k++ {
		got := det.Push(sensor.Sample(0.02, s, true))
		if k > 200 && got != StateHover {
			misfires++
		}
	}
	if misfires > n/10 {
		t.Fatalf("hover misclassified %d/%d samples", misfires, n)
	}
}

// Velocity returns the detector's current velocity estimate.
func (d *Detector) Velocity() geom.Vec3 { return d.vel }

// Reset clears the detector state.
func (d *Detector) Reset() {
	d.vel = geom.Vec3{}
	d.noise = 0
	d.primed = false
}
