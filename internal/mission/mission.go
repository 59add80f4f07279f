// Package mission plans and executes the paper's motivating task (§I): a
// drone tour over the orchard's fly traps, reading each one, negotiating
// access per Fig 3 whenever a human blocks a trap. It binds together the
// orchard world, the core system (flight + lights + recognition +
// protocol) and produces the mission report behind experiment E13.
package mission

import (
	"errors"
	"fmt"
	"time"

	"hdc/internal/core"
	"hdc/internal/flight"
	"hdc/internal/geom"
	"hdc/internal/orchard"
	"hdc/internal/protocol"
)

// Config tunes mission execution.
type Config struct {
	// BlockRadius is how close a human must stand to a trap to force a
	// negotiation (default 4 m).
	BlockRadius float64
	// RetryDenied re-queues denied traps once at the end (default true via
	// !NoRetryDenied).
	NoRetryDenied bool
	// WorldStep is the orchard time advanced per trap visit on top of
	// flight time (human walking, pest arrivals; default 30 s).
	WorldStep time.Duration
	// PestThreshold marks traps needing action in the report (default 5).
	PestThreshold int
}

func (c Config) withDefaults() Config {
	if c.BlockRadius == 0 {
		c.BlockRadius = 4
	}
	if c.WorldStep == 0 {
		c.WorldStep = 30 * time.Second
	}
	if c.PestThreshold == 0 {
		c.PestThreshold = 5
	}
	return c
}

// TrapVisit records the outcome at one trap.
type TrapVisit struct {
	TrapID     int
	Negotiated bool
	Outcome    protocol.Outcome // zero when not negotiated
	Read       bool
	PestCount  int
}

// Report summarises a mission.
type Report struct {
	TrapsTotal   int
	TrapsRead    int
	TrapsSkipped int
	Negotiations int
	Granted      int
	Denied       int
	NoResponse   int
	Aborted      int
	Visits       []TrapVisit
	SimTime      time.Duration
	BatteryUsed  float64 // fraction of capacity consumed
	ActionTraps  int     // traps over the pest threshold among those read
}

// String renders a one-line summary.
func (r Report) String() string {
	return fmt.Sprintf("traps %d/%d read (%d skipped), %d negotiations (%d granted, %d denied, %d silent, %d aborted), %.0f%% battery, %s",
		r.TrapsRead, r.TrapsTotal, r.TrapsSkipped,
		r.Negotiations, r.Granted, r.Denied, r.NoResponse, r.Aborted,
		r.BatteryUsed*100, r.SimTime.Truncate(time.Second))
}

// Mission binds a system to a world.
type Mission struct {
	Sys   *core.System
	World *orchard.Orchard
	Cfg   Config
}

// New creates a mission.
func New(sys *core.System, world *orchard.Orchard, cfg Config) (*Mission, error) {
	if sys == nil || world == nil {
		return nil, errors.New("mission: nil system or world")
	}
	return &Mission{Sys: sys, World: world, Cfg: cfg.withDefaults()}, nil
}

// PlanRoute orders the given traps by greedy nearest-neighbour from start,
// then improves the tour with 2-opt passes until no swap helps.
func PlanRoute(start geom.Vec2, traps []*orchard.Trap) []*orchard.Trap {
	if len(traps) < 2 {
		out := make([]*orchard.Trap, len(traps))
		copy(out, traps)
		return out
	}
	remaining := make([]*orchard.Trap, len(traps))
	copy(remaining, traps)
	route := make([]*orchard.Trap, 0, len(traps))
	cur := start
	for len(remaining) > 0 {
		best := 0
		bestD := cur.Dist(remaining[0].Pos)
		for i := 1; i < len(remaining); i++ {
			if d := cur.Dist(remaining[i].Pos); d < bestD {
				best, bestD = i, d
			}
		}
		route = append(route, remaining[best])
		cur = remaining[best].Pos
		remaining = append(remaining[:best], remaining[best+1:]...)
	}
	twoOpt(start, route)
	return route
}

// twoOpt reverses route segments while that shortens the tour.
func twoOpt(start geom.Vec2, route []*orchard.Trap) {
	pos := func(i int) geom.Vec2 {
		if i < 0 {
			return start
		}
		return route[i].Pos
	}
	improved := true
	for pass := 0; improved && pass < 20; pass++ {
		improved = false
		for i := 0; i < len(route)-1; i++ {
			for j := i + 1; j < len(route); j++ {
				// Current edges: (i-1,i) and (j,j+1); proposed: (i-1,j) and
				// (i,j+1). The tour is open-ended, so a missing j+1 edge
				// costs nothing.
				before := pos(i - 1).Dist(pos(i))
				after := pos(i - 1).Dist(pos(j))
				if j+1 < len(route) {
					before += pos(j).Dist(pos(j + 1))
					after += pos(i).Dist(pos(j + 1))
				}
				if after+1e-9 < before {
					for a, b := i, j; a < b; a, b = a+1, b-1 {
						route[a], route[b] = route[b], route[a]
					}
					improved = true
				}
			}
		}
	}
}

// Run executes the mission over all currently unread traps and returns the
// report. Safety aborts end the mission early (report reflects partial
// progress).
func (m *Mission) Run() (Report, error) {
	return m.runOver(m.World.UnreadTraps())
}

// runOver executes the mission over an explicit trap share (the fleet layer
// hands each drone its partition).
func (m *Mission) runOver(traps []*orchard.Trap) (Report, error) {
	cfg := m.Cfg
	var rep Report
	startCharge := m.Sys.Agent.BatteryFrac()

	if err := m.Sys.EnsureAirborne(); err != nil {
		return rep, fmt.Errorf("mission: %w", err)
	}

	queue := PlanRoute(m.Sys.Agent.D.S.Pos.XY(), traps)
	rep.TrapsTotal = len(queue)
	var denied []*orchard.Trap

	visit := func(tr *orchard.Trap) (stop bool) {
		m.World.Step(cfg.WorldStep)
		m.syncHumans()

		v := TrapVisit{TrapID: tr.ID}
		defer func() { rep.Visits = append(rep.Visits, v) }()

		blocker := m.World.HumanNear(tr.Pos, cfg.BlockRadius)
		if blocker == nil {
			// Free approach.
			if _, err := m.Sys.Agent.FlyPattern(flight.PatternCruise,
				geom.V3(tr.Pos.X, tr.Pos.Y, 3)); err != nil {
				rep.Aborted++
				return true
			}
			v.Read = true
			v.PestCount = m.World.ReadTrap(tr)
			rep.TrapsRead++
			return false
		}

		// Negotiated access (Fig 3).
		rep.Negotiations++
		v.Negotiated = true
		res, err := m.Sys.Converse(blocker)
		if err != nil {
			rep.Aborted++
			return true
		}
		v.Outcome = res.Outcome
		switch res.Outcome {
		case protocol.OutcomeGranted:
			rep.Granted++
			m.Sys.Agent.WaiveSeparation(true)
			_, err := m.Sys.Agent.FlyPattern(flight.PatternCruise,
				geom.V3(tr.Pos.X, tr.Pos.Y, 3))
			m.Sys.Agent.WaiveSeparation(false)
			if err != nil {
				rep.Aborted++
				return true
			}
			v.Read = true
			v.PestCount = m.World.ReadTrap(tr)
			rep.TrapsRead++
		case protocol.OutcomeDenied:
			rep.Denied++
			denied = append(denied, tr)
		case protocol.OutcomeNoResponse:
			rep.NoResponse++
			denied = append(denied, tr)
		case protocol.OutcomeAborted:
			rep.Aborted++
			return true
		}
		return false
	}

	stopped := false
	for _, tr := range queue {
		if visit(tr) {
			stopped = true
			break
		}
	}
	// One retry round for denied/silent traps — the human may have moved on.
	if !cfg.NoRetryDenied && !stopped {
		retry := denied
		denied = nil
		for _, tr := range retry {
			if visit(tr) {
				break
			}
		}
	}

	rep.TrapsSkipped = rep.TrapsTotal - rep.TrapsRead
	rep.SimTime = m.World.Clock()
	rep.BatteryUsed = startCharge - m.Sys.Agent.BatteryFrac()
	rep.ActionTraps = m.World.ReadActionCount(cfg.PestThreshold)
	return rep, nil
}

// syncHumans publishes the humans' positions to the safety monitor.
func (m *Mission) syncHumans() {
	m.Sys.Agent.SetHumans(m.World.PeoplePositions())
}
