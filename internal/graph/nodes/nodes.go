// Package nodes is the in-tree graph node library: the repo's perception
// and telemetry workloads — sign recognition, gesture feature extraction,
// LED-ring protocol decoding, IMU motion detection, flight-pattern
// classification — packaged as graph.Proc stages plus ready-made topologies
// (the *Spec constructors), so a service can run any mix of them on one
// shared worker pool and serve them over the /v1/graph endpoints.
//
// Every node here passes the graphtest conformance kit under -race (see
// nodes_test.go), and the vision nodes are pinned byte-identical to their
// references by the differential tests in diff_test.go: recognition runs
// the same RecognizeWith call the pool's default stream runs, and a gesture
// window classifies exactly as gesture.ExtractFrame on each frame in order
// followed by Recognizer.Classify.
package nodes

import (
	"context"
	"errors"
	"fmt"

	"hdc/internal/flight"
	"hdc/internal/geom"
	"hdc/internal/gesture"
	"hdc/internal/graph"
	"hdc/internal/imu"
	"hdc/internal/ledring"
	"hdc/internal/raster"
	"hdc/internal/recognizer"
	"hdc/internal/timeseries"
)

// Recognize returns the sign-recognition node: the same RecognizeWith call
// a default pool stream makes, so results are bit-identical to the legacy
// path. The message's Value becomes the recognizer.Result; a recognition
// failure (ErrNoSign, vision errors) becomes the message's Err with the
// diagnostic Result still attached — exactly a StreamResult's shape.
func Recognize(rec *recognizer.Recognizer) graph.Proc {
	return func(sc *recognizer.Scratch, m *graph.Msg) error {
		res, err := rec.RecognizeWith(sc, m.Frame)
		m.Value = res
		return err
	}
}

// RecognizeSpec is the served recognition topology: a single classify node.
func RecognizeSpec(rec *recognizer.Recognizer) graph.Spec {
	return graph.Spec{
		Name:   "recognize",
		Nodes:  []graph.NodeSpec{{Name: "classify", Proc: Recognize(rec)}},
		Ingest: graph.EdgeSpec{Cap: 8},
	}
}

// GestureFeatures returns the per-frame gesture feature node: the
// pooled-scratch ExtractFrame stage a live gesture session also runs,
// producing bit-identical gesture.Features. The frame's Value becomes the
// Features.
func GestureFeatures() graph.Proc {
	return func(sc *recognizer.Scratch, m *graph.Msg) error {
		f, err := gesture.ExtractFrame(sc.Vision(), m.Frame)
		if err != nil {
			return err
		}
		m.Value = f
		return nil
	}
}

// GestureSpec is the served gesture topology: a single features node; the
// window-level classification runs at the collection point, once the whole
// window has delivered (see ClassifyGestureWindow).
func GestureSpec() graph.Spec {
	return graph.Spec{
		Name:   "gesture",
		Nodes:  []graph.NodeSpec{{Name: "features", Proc: GestureFeatures()}},
		Ingest: graph.EdgeSpec{Cap: 8},
	}
}

// ClassifyGestureWindow pushes one observation window through g — a graph
// built from GestureSpec — and classifies the resulting feature series with
// r. It is the one one-shot gesture path: the service's /v1/gesture and
// /v1/graph/gesture both run it. A window shorter than r.MinWindow() is
// refused with gesture.ErrShortWindow. Frames the graph accepts recycle
// through the graph's Recycle hook; onFrame (optional) receives only frames
// the call never submitted (the short-window refusal), so every frame comes
// back exactly once when both hooks recycle to the same pool. A per-frame
// extraction error fails the window with the first error in frame order.
func ClassifyGestureWindow(ctx context.Context, g *graph.Graph, r *gesture.Recognizer, frames []*raster.Gray, onFrame func(*raster.Gray)) (gesture.Match, error) {
	if len(frames) < r.MinWindow() {
		if onFrame != nil {
			for _, f := range frames {
				onFrame(f)
			}
		}
		return gesture.Match{}, fmt.Errorf("%w: %d frames, need %d", gesture.ErrShortWindow, len(frames), r.MinWindow())
	}
	in := make([]graph.Input, len(frames))
	for i, f := range frames {
		in[i] = graph.Input{Frame: f}
	}
	out, err := g.Process(ctx, in)
	if err != nil {
		return gesture.Match{}, err
	}
	topX := make(timeseries.Series, len(out))
	topY := make(timeseries.Series, len(out))
	for i, o := range out {
		if o.Err != nil {
			return gesture.Match{}, o.Err
		}
		f := o.Value.(gesture.Features)
		topX[i] = f.CenX
		topY[i] = f.Aspect
	}
	return r.Classify(topX, topY)
}

// LedringInput is one LED-ring observation offered to the ledring graph:
// one or more whole-ring frames (successive ticks of the same ring). The
// first frame is decoded for heading and danger; the first two classify
// the pulse, when present.
type LedringInput struct {
	Frames [][]ledring.Color
}

// LedringReading is the decoded answer of the ledring graph. Decode
// failures are per-field (a danger ring legitimately has no heading
// boundary), so one bad field does not void the others.
type LedringReading struct {
	// Heading is the decoded red→green boundary direction; valid only when
	// HeadingErr is empty.
	Heading geom.Heading
	// HeadingErr is the decode failure, "" on success.
	HeadingErr string
	// QuantErrDeg is the worst-case quantisation error for the ring's LED
	// count.
	QuantErrDeg float64
	// Danger reports the all-red danger display.
	Danger bool
	// Pulse is the classified two-frame pulse (PulseNone with one frame);
	// valid only when PulseErr is empty.
	Pulse ledring.Pulse
	// PulseErr is the pulse-classification failure, "" when absent or
	// classified.
	PulseErr string
}

// ledringCarry threads the input alongside the partially built reading
// between the decode and pulse nodes.
type ledringCarry struct {
	in LedringInput
	rd *LedringReading
}

// LedringDecode returns the heading/danger decode node: Value goes from
// LedringInput to the carry the pulse node completes. An input with no
// frames is a stage error.
func LedringDecode() graph.Proc {
	return func(_ *recognizer.Scratch, m *graph.Msg) error {
		in, ok := m.Value.(LedringInput)
		if !ok {
			return fmt.Errorf("ledring node: payload is %T, want LedringInput", m.Value)
		}
		if len(in.Frames) == 0 {
			return errors.New("ledring node: no frames")
		}
		rd := &LedringReading{
			QuantErrDeg: ledring.HeadingQuantizationErrorDeg(len(in.Frames[0])),
			Danger:      ledring.IsDanger(in.Frames[0]),
		}
		h, err := ledring.DecodeHeading(in.Frames[0])
		if err != nil {
			rd.HeadingErr = err.Error()
		} else {
			rd.Heading = h
		}
		m.Value = ledringCarry{in: in, rd: rd}
		return nil
	}
}

// LedringPulse returns the pulse-classification node, the ledring chain's
// sink: with two or more frames it classifies the pulse pair, and the
// Value becomes the finished *LedringReading.
func LedringPulse() graph.Proc {
	return func(_ *recognizer.Scratch, m *graph.Msg) error {
		c, ok := m.Value.(ledringCarry)
		if !ok {
			return fmt.Errorf("ledring pulse node: payload is %T, want the decode node's carry", m.Value)
		}
		if len(c.in.Frames) >= 2 {
			p, err := ledring.ClassifyPulse(c.in.Frames[0], c.in.Frames[1])
			if err != nil {
				c.rd.PulseErr = err.Error()
			} else {
				c.rd.Pulse = p
			}
		}
		m.Value = c.rd
		return nil
	}
}

// LedringSpec is the served LED-ring topology: decode → pulse.
func LedringSpec() graph.Spec {
	return graph.Spec{
		Name: "ledring",
		Nodes: []graph.NodeSpec{
			{Name: "decode", Proc: LedringDecode()},
			{Name: "pulse", Proc: LedringPulse()},
		},
		Edges:  []graph.EdgeSpec{{From: "decode", To: "pulse", Cap: 4}},
		Ingest: graph.EdgeSpec{Cap: 8},
	}
}

// IMUWindow is one window of IMU samples offered to the imu graph.
type IMUWindow []imu.Sample

// IMUReading summarises a window: the detector's final state, its label,
// and how many state transitions the window contained.
type IMUReading struct {
	Final       imu.MotionState
	FinalLabel  string
	Transitions int
	Samples     int
}

// IMUDetect returns the motion-detection node: each window runs through a
// fresh imu.Detector (the detector is stateful, so per-message isolation is
// what makes the node safe to run concurrently), and Value becomes the
// IMUReading. An empty window is a stage error.
func IMUDetect() graph.Proc {
	return func(_ *recognizer.Scratch, m *graph.Msg) error {
		w, ok := m.Value.(IMUWindow)
		if !ok {
			return fmt.Errorf("imu node: payload is %T, want IMUWindow", m.Value)
		}
		if len(w) == 0 {
			return errors.New("imu node: empty window")
		}
		d := imu.NewDetector()
		var rd IMUReading
		prev := imu.StateUnknown
		for _, s := range w {
			st := d.Push(s)
			if st != prev {
				rd.Transitions++
				prev = st
			}
			rd.Final = st
		}
		rd.FinalLabel = rd.Final.String()
		rd.Samples = len(w)
		m.Value = rd
		return nil
	}
}

// IMUSpec is the served IMU topology: a single detect node.
func IMUSpec() graph.Spec {
	return graph.Spec{
		Name:   "imu",
		Nodes:  []graph.NodeSpec{{Name: "detect", Proc: IMUDetect()}},
		Ingest: graph.EdgeSpec{Cap: 8},
	}
}

// FlightReading is the flight graph's answer: the classified pattern and
// the observer features it was read from.
type FlightReading struct {
	Pattern  flight.Pattern
	Label    string
	Features flight.Features
}

// FlightClassify returns the flight-pattern node: Value goes from a
// flight.Trajectory to a FlightReading. Too-short and unmatchable
// trajectories are stage errors, as flight.Classify reports them.
func FlightClassify() graph.Proc {
	return func(_ *recognizer.Scratch, m *graph.Msg) error {
		tr, ok := m.Value.(flight.Trajectory)
		if !ok {
			return fmt.Errorf("flight node: payload is %T, want flight.Trajectory", m.Value)
		}
		p, feats, err := flight.Classify(tr)
		if err != nil {
			return err
		}
		m.Value = FlightReading{Pattern: p, Label: p.String(), Features: feats}
		return nil
	}
}

// FlightSpec is the served flight-pattern topology: a single classify node.
func FlightSpec() graph.Spec {
	return graph.Spec{
		Name:   "flight",
		Nodes:  []graph.NodeSpec{{Name: "classify", Proc: FlightClassify()}},
		Ingest: graph.EdgeSpec{Cap: 8},
	}
}
