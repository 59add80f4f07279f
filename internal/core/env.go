package core

import (
	"errors"
	"time"

	"hdc/internal/body"
	"hdc/internal/drone"
	"hdc/internal/flight"
	"hdc/internal/geom"
	"hdc/internal/human"
	"hdc/internal/pipeline"
	"hdc/internal/protocol"
	"hdc/internal/raster"
	"hdc/internal/recognizer"
	"hdc/internal/scene"
)

// conversationEnv binds protocol.Env to the full simulated stack: flight
// patterns are flown by the drone agent, and PerceiveSign renders the
// collaborator from the drone's actual pose and runs the SAX recogniser on
// the frame. This is where Fig 3 happens end to end.
type conversationEnv struct {
	sys     *System
	human   *human.Collaborator
	frame   *raster.Gray        // pooled render target, reused across perceptions
	scratch *recognizer.Scratch // per-conversation recognition lane (vision + lookup buffers)

	extra     time.Duration // perception time not covered by the agent clock
	lastPoked bool
	lastAsked bool
}

func newConversationEnv(s *System, c *human.Collaborator) *conversationEnv {
	// The safety monitor must know about the collaborator, and the
	// negotiated approach happens inside the separation bubble, so the
	// waiver is managed around EnterArea.
	s.Agent.SetHumans([]geom.Vec2{c.Position()})
	cfg := s.Rend.Config()
	return &conversationEnv{
		sys:     s,
		human:   c,
		frame:   s.framePool.Get(cfg.Width, cfg.Height),
		scratch: recognizer.NewScratch(),
	}
}

func (e *conversationEnv) close() {
	e.sys.Agent.WaiveSeparation(false)
	e.sys.framePool.Put(e.frame)
	e.frame = nil
}

// Now implements protocol.Env.
func (e *conversationEnv) Now() time.Duration { return e.sys.Agent.Clock() + e.extra }

// mapErr converts agent safety trips into protocol aborts.
func mapErr(err error) error {
	if errors.Is(err, drone.ErrSafetyTripped) {
		return protocol.ErrSafetyAbort
	}
	return err
}

// FlyPattern implements protocol.Env.
func (e *conversationEnv) FlyPattern(p flight.Pattern) error {
	a := e.sys.Agent
	var target geom.Vec3
	switch p {
	case flight.PatternCruise:
		target = e.sys.StandoffPoint(e.human)
	case flight.PatternPoke:
		e.lastPoked = true
		hp := e.human.Position()
		target = geom.V3(hp.X, hp.Y, negotAltM)
	case flight.PatternRectangle:
		e.lastAsked = true
		hp := e.human.Position()
		target = geom.V3(hp.X, hp.Y, negotAltM)
	}
	_, err := a.FlyPattern(p, target)
	return mapErr(err)
}

// PerceiveSign implements protocol.Env: the collaborator reacts to the last
// communicative pattern, the drone camera renders them from the true
// relative geometry and the SAX pipeline classifies the frame.
func (e *conversationEnv) PerceiveSign(timeout time.Duration) (body.Sign, bool, error) {
	var resp human.Response
	switch {
	case e.lastAsked:
		e.lastAsked = false
		resp = e.human.RespondAreaRequest()
	case e.lastPoked:
		e.lastPoked = false
		resp = e.human.RespondAttention()
	default:
		e.extra += timeout
		return 0, false, nil
	}
	if !resp.Responded || resp.Latency > timeout {
		e.extra += timeout
		return 0, false, nil
	}
	e.extra += resp.Latency

	// An attending collaborator turns towards the drone (with human
	// imprecision) before signing.
	bearing := geom.HeadingOf(e.sys.Agent.D.S.Pos.XY().Sub(e.human.Position()))
	e.human.SetFacing(bearing.Add(geom.Deg2Rad(resp.Jitter)))

	view, ok := e.viewOf()
	if !ok {
		e.extra += timeout - resp.Latency
		return 0, false, nil
	}
	// A private system renders into the conversation's reusable buffer and
	// recognises synchronously on its scratch. A system attached to a fleet
	// pool renders into a fresh framePool buffer — ownership passes to the
	// perception feed at Offer, which recycles it on every path — and the
	// frame travels through the drone's ingest ring to the shared workers
	// (see feed.go).
	target := e.frame
	if e.sys.perceivePooled() {
		cfg := e.sys.Rend.Config()
		target = e.sys.framePool.Get(cfg.Width, cfg.Height)
	}
	frame, err := e.sys.Rend.RenderInto(target, resp.Sign, view, resp.BodyOptions(), e.sys.Rng)
	if err != nil {
		if target != e.frame {
			e.sys.framePool.Put(target)
		}
		e.extra += timeout - resp.Latency
		return 0, false, nil
	}
	res, err := e.sys.perceive(e.scratch, frame)
	e.extra += res.Timings.Total
	if err != nil {
		switch {
		case errors.Is(err, recognizer.ErrNoSign):
			return 0, false, nil
		case errors.Is(err, errFrameShed):
			// The fleet pool was saturated and this drone's ring shed the
			// frame: the drone simply saw nothing this round, and the
			// protocol's timeout/retry machinery handles it like any other
			// missed perception.
			e.extra += timeout - resp.Latency
			return 0, false, nil
		case errors.Is(err, pipeline.ErrClosed), errors.Is(err, pipeline.ErrSourceClosed),
			errors.Is(err, pipeline.ErrStreamClosed):
			// The pool went away mid-conversation (shutdown): surface it so
			// the mission aborts cleanly instead of spinning on a dead pool.
			return 0, false, err
		default:
			return 0, false, nil // vision failure = nothing perceived
		}
	}
	return res.Sign, true, nil
}

// viewOf computes the camera view of the collaborator from the drone's
// actual pose. ok is false when the geometry is outside the renderer's
// plausible envelope.
func (e *conversationEnv) viewOf() (scene.View, bool) {
	dronePos := e.sys.Agent.D.S.Pos
	hp := e.human.Position()
	dist := dronePos.XY().Dist(hp)
	if dist < 0.5 {
		return scene.View{}, false
	}
	bearingFromHuman := geom.HeadingOf(dronePos.XY().Sub(hp))
	rel := e.human.Heading().Diff(bearingFromHuman)
	v := scene.View{
		AltitudeM:  dronePos.Z,
		DistanceM:  dist,
		AzimuthDeg: -geom.Rad2Deg(rel),
	}
	return v, v.Validate() == nil
}

// EnterArea implements protocol.Env: the human granted access, so the
// separation trigger is waived for the approach.
func (e *conversationEnv) EnterArea() error {
	a := e.sys.Agent
	a.WaiveSeparation(true)
	hp := e.human.Position()
	target := geom.V3(hp.X, hp.Y, negotAltM*0.6)
	_, err := a.FlyPattern(flight.PatternCruise, target)
	return mapErr(err)
}

// Retreat implements protocol.Env: back off to twice the stand-off.
func (e *conversationEnv) Retreat() error {
	a := e.sys.Agent
	a.WaiveSeparation(false)
	from := a.D.S.Pos.XY()
	hp := e.human.Position()
	dir := from.Sub(hp)
	if dir.Norm() < 1e-9 {
		dir = geom.V2(0, -1)
	}
	p := hp.Add(dir.Unit().Scale(2 * standoffM))
	_, err := a.FlyPattern(flight.PatternCruise, geom.V3(p.X, p.Y, negotAltM))
	return mapErr(err)
}

// SignalDanger implements protocol.Env.
func (e *conversationEnv) SignalDanger() {
	e.sys.Agent.Ring.SetDanger()
}

// Interface compliance.
var _ protocol.Env = (*conversationEnv)(nil)
