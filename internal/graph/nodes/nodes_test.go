package nodes

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"hdc/internal/geom"
	"hdc/internal/gesture"
	"hdc/internal/graph/graphtest"
	"hdc/internal/imu"
	"hdc/internal/ledring"
	"hdc/internal/raster"
	"hdc/internal/recognizer"
	"hdc/internal/scene"

	"hdc/internal/flight"
)

// newRecognizer builds a calibrated sign recogniser (and the renderer that
// calibrated it) for the recognition node and the differential tests.
func newRecognizer(t testing.TB) (*recognizer.Recognizer, *scene.Renderer) {
	t.Helper()
	rec, err := recognizer.New(recognizer.Config{})
	if err != nil {
		t.Fatal(err)
	}
	rend := scene.NewRenderer(scene.Config{Width: 128, Height: 128})
	if err := rec.BuildReferences(rend, scene.ReferenceView()); err != nil {
		t.Fatal(err)
	}
	return rec, rend
}

// ringFrame builds a decodable n-LED navigation ring: one red LED followed
// by a green one, the rest off, boundary at index i.
func ringFrame(n, i int) []ledring.Color {
	leds := make([]ledring.Color, n)
	leds[(i+n-1)%n] = ledring.Red
	leds[i%n] = ledring.Green
	return leds
}

// uniformFrame builds a whole-ring pulse frame of one colour.
func uniformFrame(n int, c ledring.Color) []ledring.Color {
	leds := make([]ledring.Color, n)
	for i := range leds {
		leds[i] = c
	}
	return leds
}

// hoverWindow builds a steady-hover IMU window of n samples.
func hoverWindow(n int) IMUWindow {
	w := make(IMUWindow, n)
	for i := range w {
		w[i] = imu.Sample{
			Accel:    geom.V3(0, 0, imu.Gravity),
			BaroAltM: 5,
		}
	}
	return w
}

// cruiseTrajectory builds a straight constant-altitude run of n samples.
func cruiseTrajectory(n int) flight.Trajectory {
	tr := make(flight.Trajectory, n)
	for i := range tr {
		tr[i] = flight.Sample{
			T:       float64(i) * 0.5,
			Pos:     geom.V3(float64(i)*0.8, 0, 5),
			Heading: geom.NewHeading(0),
		}
	}
	return tr
}

// TestNodeConformanceRecognize runs the conformance kit over the sign
// recognition node (the kit's blank frames yield ErrNoSign verdicts, which
// conformance treats as deliveries like any other).
func TestNodeConformanceRecognize(t *testing.T) {
	rec, _ := newRecognizer(t)
	graphtest.Run(t, graphtest.Node{
		Name:   "classify",
		Proc:   Recognize(rec),
		Frames: true,
	})
}

// TestNodeConformanceGestureFeatures runs the kit over the per-frame
// gesture feature node.
func TestNodeConformanceGestureFeatures(t *testing.T) {
	graphtest.Run(t, graphtest.Node{
		Name:   "features",
		Proc:   GestureFeatures(),
		Frames: true,
	})
}

// TestNodeConformanceLedringDecode runs the kit over the LED-ring decode
// node with decodable rings of rotating boundary positions.
func TestNodeConformanceLedringDecode(t *testing.T) {
	graphtest.Run(t, graphtest.Node{
		Name:  "decode",
		Proc:  LedringDecode(),
		Value: func(i int) any { return LedringInput{Frames: [][]ledring.Color{ringFrame(12, i)}} },
	})
}

// TestNodeConformanceLedringPulse runs the kit over the pulse node, feeding
// it the decode node's carry as it would arrive mid-chain.
func TestNodeConformanceLedringPulse(t *testing.T) {
	graphtest.Run(t, graphtest.Node{
		Name: "pulse",
		Proc: LedringPulse(),
		Value: func(i int) any {
			in := LedringInput{Frames: [][]ledring.Color{
				uniformFrame(12, ledring.Green),
				uniformFrame(12, ledring.White),
			}}
			return ledringCarry{in: in, rd: &LedringReading{}}
		},
	})
}

// TestNodeConformanceIMUDetect runs the kit over the IMU motion node with
// steady-hover windows.
func TestNodeConformanceIMUDetect(t *testing.T) {
	graphtest.Run(t, graphtest.Node{
		Name:  "detect",
		Proc:  IMUDetect(),
		Value: func(i int) any { return hoverWindow(32 + i%8) },
	})
}

// TestNodeConformanceFlightClassify runs the kit over the flight-pattern
// node with cruise trajectories.
func TestNodeConformanceFlightClassify(t *testing.T) {
	graphtest.Run(t, graphtest.Node{
		Name:  "classify",
		Proc:  FlightClassify(),
		Value: func(i int) any { return cruiseTrajectory(16 + i%8) },
	})
}

// TestLedringGraphReading drives the full two-node ledring topology and
// checks the assembled reading against direct package calls.
func TestLedringGraphReading(t *testing.T) {
	p := newTestPool(t)
	g, err := buildSpec(t, LedringSpec(), p)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	nav := ringFrame(12, 3)
	wantHeading, err := ledring.DecodeHeading(nav)
	if err != nil {
		t.Fatal(err)
	}
	inputs := []LedringInput{
		{Frames: [][]ledring.Color{nav}},
		{Frames: [][]ledring.Color{uniformFrame(8, ledring.Red)}},
		{Frames: [][]ledring.Color{uniformFrame(8, ledring.Green), uniformFrame(8, ledring.White)}},
	}
	out := processValues(t, g, inputs)

	rd := out[0].(*LedringReading)
	if rd.HeadingErr != "" || rd.Heading != wantHeading || rd.Danger || rd.Pulse != ledring.PulseNone {
		t.Fatalf("nav ring reading: %+v", rd)
	}
	if rd.QuantErrDeg != ledring.HeadingQuantizationErrorDeg(12) {
		t.Fatalf("quantisation error %v", rd.QuantErrDeg)
	}
	rd = out[1].(*LedringReading)
	if !rd.Danger || rd.HeadingErr == "" {
		t.Fatalf("danger ring reading: %+v", rd)
	}
	rd = out[2].(*LedringReading)
	if rd.PulseErr != "" || rd.Pulse != ledring.PulseTakeOff {
		t.Fatalf("pulse ring reading: %+v", rd)
	}
}

// TestGestureGraphReading runs every gesture through ClassifyGestureWindow
// at randomized starting phases — pooled-scratch feature extraction on the
// graph under -race — and pins the sub-cycle refusal, with every refused
// frame handed back.
func TestGestureGraphReading(t *testing.T) {
	rend := scene.NewRenderer(scene.Config{})
	r, err := gesture.NewRecognizer(gesture.Config{}, rend, scene.ReferenceView())
	if err != nil {
		t.Fatal(err)
	}
	p := newTestPool(t)
	g, err := buildSpec(t, GestureSpec(), p)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	ctx := context.Background()
	rng := rand.New(rand.NewSource(42))
	for _, gest := range gesture.Gestures() {
		for trial := 0; trial < 3; trial++ {
			phase0 := rng.Float64()
			frames := renderGestureWindow(t, rend, r, gest, phase0, r.MinWindow())
			m, err := ClassifyGestureWindow(ctx, g, r, frames, nil)
			if err != nil {
				t.Fatalf("%v @ phase %.2f: %v", gest, phase0, err)
			}
			if m.Gesture != gest {
				t.Fatalf("%v @ phase %.2f → %v (dist %.2f)", gest, phase0, m.Gesture, m.Dist)
			}
		}
	}
	if _, err := ClassifyGestureWindow(ctx, g, r, nil, nil); !errors.Is(err, gesture.ErrShortWindow) {
		t.Fatalf("empty window: %v, want ErrShortWindow", err)
	}
	// A sub-cycle window would z-normalise into a trivially matchable shape
	// (the threshold is calibrated for full cycles); it must be refused,
	// with every frame still recycled.
	short := renderGestureWindow(t, rend, r, gesture.GestureWave, 0, r.MinWindow()-1)
	recycled := 0
	if _, err := ClassifyGestureWindow(ctx, g, r, short, func(*raster.Gray) { recycled++ }); !errors.Is(err, gesture.ErrShortWindow) {
		t.Fatalf("short window: %v, want ErrShortWindow", err)
	}
	if recycled != len(short) {
		t.Fatalf("short window recycled %d of %d frames", recycled, len(short))
	}
}

// TestIMUGraphReading drives the imu topology over a hover window.
func TestIMUGraphReading(t *testing.T) {
	p := newTestPool(t)
	g, err := buildSpec(t, IMUSpec(), p)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	out := processValues(t, g, []IMUWindow{hoverWindow(64)})
	rd := out[0].(IMUReading)
	if rd.Samples != 64 || rd.FinalLabel != rd.Final.String() || rd.Transitions == 0 {
		t.Fatalf("imu reading: %+v", rd)
	}
}

// TestFlightGraphReading drives the flight topology over known patterns.
func TestFlightGraphReading(t *testing.T) {
	p := newTestPool(t)
	g, err := buildSpec(t, FlightSpec(), p)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	tr := cruiseTrajectory(16)
	wantP, wantF, err := flight.Classify(tr)
	if err != nil {
		t.Fatal(err)
	}
	out := processValues(t, g, []flight.Trajectory{tr})
	rd := out[0].(FlightReading)
	if rd.Pattern != wantP || rd.Label != wantP.String() || rd.Features != wantF {
		t.Fatalf("flight reading: %+v, want pattern %v features %+v", rd, wantP, wantF)
	}
}
