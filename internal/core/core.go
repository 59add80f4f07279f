// Package core is the public façade of the hdc library: it assembles the
// drone agent (flight + all-round light + safety), the synthetic camera,
// the SAX sign recogniser and the Fig 3 negotiation protocol into one
// System, configured through functional options. Examples and the mission
// layer build on this package; everything underneath remains importable for
// fine-grained use.
package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"hdc/internal/drone"
	"hdc/internal/flight"
	"hdc/internal/geom"
	"hdc/internal/human"
	"hdc/internal/pipeline"
	"hdc/internal/protocol"
	"hdc/internal/raster"
	"hdc/internal/recognizer"
	"hdc/internal/scene"
	"hdc/internal/telemetry"
)

// config collects option state.
type config struct {
	seed        int64
	sceneCfg    scene.Config
	pipeCfg     pipeline.Config
	sharedPipe  *pipeline.Pipeline // non-nil: attach instead of owning a pool
	poolLabel   string             // stats attribution name on the shared pool
	perceiveDdl time.Duration      // pooled-perception deadline (0: wait)
	home        geom.Vec3
	standoff    float64 // negotiation stand-off distance (m)
	negotAlt    float64 // negotiation altitude (m)
	windGust    float64
	windMean    geom.Vec2
	windSet     bool
}

// Option configures NewSystem.
type Option func(*config)

// WithSeed fixes the random seed (default 1).
func WithSeed(seed int64) Option { return func(c *config) { c.seed = seed } }

// WithSceneConfig overrides the synthetic camera.
func WithSceneConfig(s scene.Config) Option { return func(c *config) { c.sceneCfg = s } }

// WithPipelineConfig sizes the streaming recognition worker pool behind
// NewStream/RecognizeBatch (default: NumCPU workers). It is ignored when the
// system attaches to a shared pool via WithSharedPipeline — the pool was
// sized by whoever built it.
func WithPipelineConfig(p pipeline.Config) Option { return func(c *config) { c.pipeCfg = p } }

// WithSharedPipeline attaches the system to an externally built worker pool
// (NewSharedPool, or another system's exported pipeline) instead of starting
// a private one. Build the pool with the same scene and negotiation-geometry
// options as the systems that attach to it: the pool recognises against its
// own reference database, so a resolution or view mismatch between a drone's
// camera and the pool silently degrades recognition. The attachment is made
// inside NewSystem — so the pool's reference count always matches the set of
// constructed systems — and NewSystem fails with pipeline.ErrClosed if the
// pool has already shut down.
// The system's streaming calls and its conversation perception all draw on
// the shared pool; System.Close detaches, and only the last attached
// system's Close drains the pool. This is how a mission.Fleet makes
// recognition capacity a fleet-level resource rather than a per-drone one.
func WithSharedPipeline(p *pipeline.Pipeline) Option {
	return func(c *config) { c.sharedPipe = p }
}

// WithPoolLabel names this system in the pool's per-owner statistics
// (pipeline.Stats.Owners) — a drone ID, a server name. Unlabelled systems
// are assigned "owner-N" in attach order.
func WithPoolLabel(label string) Option { return func(c *config) { c.poolLabel = label } }

// WithPerceptionDeadline bounds (in wall-clock time) how long a shared
// system's conversation perception waits for the fleet pool before giving
// the frame up: past the deadline the conversation perceives nothing — the
// protocol's timeout machinery takes over — and the abandoned frame is shed
// at the drone's own ring (owner-attributed) or discarded when its late
// result lands. Zero (the default) waits for the pool indefinitely, which
// keeps simulations deterministic; real fleets holding a perception budget
// set a deadline. Ignored on systems without WithSharedPipeline.
func WithPerceptionDeadline(d time.Duration) Option {
	return func(c *config) { c.perceiveDdl = d }
}

// WithHome places the drone's base station.
func WithHome(h geom.Vec3) Option { return func(c *config) { c.home = h } }

// WithNegotiationGeometry sets the stand-off distance and altitude used
// when conversing (defaults: the paper's 3 m and 5 m).
func WithNegotiationGeometry(standoffM, altitudeM float64) Option {
	return func(c *config) {
		c.standoff = standoffM
		c.negotAlt = altitudeM
	}
}

// WithWind adds a wind field (mean + gust standard deviation).
func WithWind(mean geom.Vec2, gustStd float64) Option {
	return func(c *config) {
		c.windMean = mean
		c.windGust = gustStd
		c.windSet = true
	}
}

// System is the assembled human-drone communication stack. The streaming
// members (NewStream, RecognizeBatch) are safe for concurrent use; the
// single-drone members (Converse, EnsureAirborne) drive the one agent and
// must not be called concurrently with each other.
type System struct {
	Agent  *drone.Agent
	Rend   *scene.Renderer
	Rec    *recognizer.Recognizer
	Engine *protocol.Engine
	Log    *telemetry.Log
	Rng    *rand.Rand

	standoff float64
	negotAlt float64

	pipeCfg          pipeline.Config
	sharedPipe       *pipeline.Pipeline // non-nil: externally owned shared pool
	poolLabel        string
	perceiveDeadline time.Duration // pooled-perception wall-clock budget (0: wait)
	pipeOnce         sync.Once
	pipe             atomic.Pointer[pipeline.Pipeline]
	owner            atomic.Pointer[pipeline.Owner] // this system's attachment handle
	pipeErr          error

	feedOnce sync.Once
	feed     *perceptionFeed // pool-routed conversation perception (shared systems)
	feedErr  error

	framePool raster.Pool // recycles conversation/perception frame buffers
}

// NewSystem assembles a system: drone at home, references built at the
// paper's canonical view, engine ready.
func NewSystem(opts ...Option) (*System, error) {
	cfg := &config{
		seed:     1,
		standoff: 3,
		negotAlt: 5,
	}
	for _, o := range opts {
		o(cfg)
	}
	log := telemetry.NewLog()
	rng := rand.New(rand.NewSource(cfg.seed))

	agent, err := drone.New(drone.Config{Home: cfg.home}, log)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if cfg.windSet {
		w, err := flight.NewWind(cfg.windMean, cfg.windGust, rng)
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		agent.D.Wind = w
	}

	rend := scene.NewRenderer(cfg.sceneCfg)
	rec, err := recognizer.New(recognizer.Config{})
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if err := rec.BuildReferences(rend, scene.View{
		AltitudeM: cfg.negotAlt, DistanceM: cfg.standoff,
	}); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}

	sys := &System{
		Agent:            agent,
		Rend:             rend,
		Rec:              rec,
		Engine:           protocol.NewEngine(protocol.Config{}, log),
		Log:              log,
		Rng:              rng,
		standoff:         cfg.standoff,
		negotAlt:         cfg.negotAlt,
		pipeCfg:          cfg.pipeCfg,
		sharedPipe:       cfg.sharedPipe,
		poolLabel:        cfg.poolLabel,
		perceiveDeadline: cfg.perceiveDdl,
	}
	if cfg.sharedPipe != nil {
		// Attach eagerly: the pool's reference count must reflect every
		// constructed system, or a fleet whose first drone finished before
		// the last one started streaming would shut the pool down early.
		if _, err := sys.ensurePipeline(); err != nil {
			return nil, fmt.Errorf("core: attach shared pipeline: %w", err)
		}
	}
	return sys, nil
}

// NewSharedPool builds a standalone recognition worker pool for a fleet: a
// renderer and recogniser assembled from the same options NewSystem honours
// (scene, negotiation geometry and pipeline sizing; world options are
// irrelevant here and ignored), references built at the canonical
// negotiation view, and the workers started. Hand the pool to N
// systems via WithSharedPipeline; it drains when the last attached system
// closes, or immediately on Pipeline.Close (the force path). A pool nobody
// ever attaches to must be shut down with Pipeline.Close.
func NewSharedPool(opts ...Option) (*pipeline.Pipeline, error) {
	cfg := &config{
		seed:     1,
		standoff: 3,
		negotAlt: 5,
	}
	for _, o := range opts {
		o(cfg)
	}
	rend := scene.NewRenderer(cfg.sceneCfg)
	rec, err := recognizer.New(recognizer.Config{})
	if err != nil {
		return nil, fmt.Errorf("core: shared pool: %w", err)
	}
	if err := rec.BuildReferences(rend, scene.View{
		AltitudeM: cfg.negotAlt, DistanceM: cfg.standoff,
	}); err != nil {
		return nil, fmt.Errorf("core: shared pool: %w", err)
	}
	p, err := pipeline.New(rec, cfg.pipeCfg)
	if err != nil {
		return nil, fmt.Errorf("core: shared pool: %w", err)
	}
	return p, nil
}

// EnsureAirborne takes off if the drone is parked.
func (s *System) EnsureAirborne() error {
	if s.Agent.D.S.Pos.Z > 0.3 {
		return nil
	}
	if _, err := s.Agent.FlyPattern(flight.PatternTakeOff, geom.Vec3{}); err != nil {
		return err
	}
	return nil
}

// Converse runs the full Fig 3 negotiation against a collaborator standing
// in the world: real flight patterns, rendered frames, SAX recognition.
func (s *System) Converse(c *human.Collaborator) (protocol.Result, error) {
	if c == nil {
		return protocol.Result{}, errors.New("core: nil collaborator")
	}
	if err := s.EnsureAirborne(); err != nil {
		return protocol.Result{}, err
	}
	env := newConversationEnv(s, c)
	res, err := s.Engine.Negotiate(env)
	env.close()
	return res, err
}

// StandoffPoint computes the negotiation hover point for a collaborator:
// standoff distance away (on the drone's current approach bearing) at
// negotiation altitude.
func (s *System) StandoffPoint(c *human.Collaborator) geom.Vec3 {
	from := s.Agent.D.S.Pos.XY()
	hp := c.Position()
	dir := from.Sub(hp)
	if dir.Norm() < 1e-9 {
		dir = geom.V2(0, -1)
	}
	p := hp.Add(dir.Unit().Scale(s.standoff))
	return geom.V3(p.X, p.Y, s.negotAlt)
}
