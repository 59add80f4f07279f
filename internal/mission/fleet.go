package mission

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"hdc/internal/core"
	"hdc/internal/geom"
	"hdc/internal/orchard"
	"hdc/internal/pipeline"
)

// fleet.go extends the mission layer to multiple drones — the collaborative
// operation the paper's abstract motivates. The traps are partitioned
// among the drones by angular sector around the orchard centre (cheap,
// balanced, and spatially coherent); each drone then runs an ordinary
// single-drone mission over its share. Drones fly in the same world, so
// negotiations and human movement interleave in simulation time.
//
// Recognition capacity is a fleet-level resource: NewPooledFleet builds one
// shared worker pool (core.NewSharedPool) and attaches every drone's system
// to it, so each drone's conversation perception draws on the same workers
// through its own bounded camera ring — idle capacity flows to whichever
// drone is negotiating, the per-stream window bounds any one drone's share,
// and with a perception deadline a drone that falls behind sheds
// frames at its own ring instead of starving the rest. NewFleet remains the
// private-pools-per-drone constructor for callers that want isolation.

// Fleet is a set of systems sharing one orchard — and, when built with
// NewPooledFleet, one recognition worker pool.
type Fleet struct {
	Missions []*Mission
	World    *orchard.Orchard

	pool *pipeline.Pipeline // nil: each drone owns its pool
}

// FleetReport aggregates the per-drone reports.
type FleetReport struct {
	PerDrone        []Report
	TrapsTotal      int
	TrapsRead       int
	Negotiations    int
	Granted         int
	Denied          int
	NoResponse      int
	Aborted         int
	MaxDroneTime    time.Duration // longest per-drone flight clock (fleet makespan)
	MeanBatteryUsed float64
}

// NewFleet builds n missions over one shared world, each drone owning a
// private recognition pool. makeSystem constructs drone i's system (letting
// callers place homes and seeds). Fleets whose drones should share one
// recognition pool are built with NewPooledFleet instead.
func NewFleet(n int, world *orchard.Orchard, cfg Config,
	makeSystem func(i int) (*core.System, error)) (*Fleet, error) {
	if n < 1 {
		return nil, errors.New("mission: fleet size < 1")
	}
	if world == nil || makeSystem == nil {
		return nil, errors.New("mission: nil world or system factory")
	}
	f := &Fleet{World: world}
	for i := 0; i < n; i++ {
		sys, err := makeSystem(i)
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("mission: drone %d: %w", i, err)
		}
		m, err := New(sys, world, cfg)
		if err != nil {
			sys.Close()
			f.Close()
			return nil, err
		}
		f.Missions = append(f.Missions, m)
	}
	return f, nil
}

// NewPooledFleet builds n missions over one shared world AND one shared
// recognition pool: the pool is assembled from poolOpts (scene, recogniser
// and pipeline sizing — use the same scene/recogniser options the drones
// get, or recognition degrades), and drone i's system is constructed from
// droneOpts(i) plus the shared attachment and a "drone-i" stats label. Every
// drone's conversation loop then recognises through the fleet pool, its
// camera fronted by a private ring (see core.WithSharedPipeline). Close the
// returned fleet to detach all drones and drain the pool.
func NewPooledFleet(n int, world *orchard.Orchard, cfg Config,
	poolOpts []core.Option, droneOpts func(i int) []core.Option) (*Fleet, error) {
	if droneOpts == nil {
		return nil, errors.New("mission: nil drone options")
	}
	pool, err := core.NewSharedPool(poolOpts...)
	if err != nil {
		return nil, fmt.Errorf("mission: fleet pool: %w", err)
	}
	f, err := NewFleet(n, world, cfg, func(i int) (*core.System, error) {
		return core.NewSystem(append(droneOpts(i),
			core.WithSharedPipeline(pool),
			core.WithPoolLabel(fmt.Sprintf("drone-%d", i)),
		)...)
	})
	if err != nil {
		// NewFleet closed any systems it built (detaching them); force-close
		// covers the case where none ever attached.
		pool.Close()
		return nil, err
	}
	f.pool = pool
	return f, nil
}

// PoolStats snapshots the fleet pool's occupancy with its per-drone
// attribution (streams, frames recognised, ingest sheds). shared is false —
// and the snapshot zero — for a private-pools fleet.
func (f *Fleet) PoolStats() (stats pipeline.Stats, shared bool) {
	if f.pool == nil {
		return pipeline.Stats{}, false
	}
	return f.pool.Stats(), true
}

// Close shuts the fleet's systems down. On a pooled fleet each close
// detaches one drone from the shared pool and the last detach drains it, so
// after Close the pool is fully stopped. Close is idempotent and safe on a
// partially constructed fleet.
func (f *Fleet) Close() {
	for _, m := range f.Missions {
		m.Sys.Close()
	}
}

// PartitionTraps splits traps into k angular sectors around their centroid,
// balancing counts by splitting the angular order evenly.
func PartitionTraps(traps []*orchard.Trap, k int) [][]*orchard.Trap {
	if k < 1 {
		return nil
	}
	if k == 1 || len(traps) <= k {
		out := make([][]*orchard.Trap, k)
		for i, t := range traps {
			out[i%k] = append(out[i%k], t)
		}
		return out
	}
	var cx, cy float64
	for _, t := range traps {
		cx += t.Pos.X
		cy += t.Pos.Y
	}
	cx /= float64(len(traps))
	cy /= float64(len(traps))
	sorted := make([]*orchard.Trap, len(traps))
	copy(sorted, traps)
	sort.Slice(sorted, func(i, j int) bool {
		ai := geom.V2(sorted[i].Pos.X-cx, sorted[i].Pos.Y-cy).Angle()
		aj := geom.V2(sorted[j].Pos.X-cx, sorted[j].Pos.Y-cy).Angle()
		return ai < aj
	})
	out := make([][]*orchard.Trap, k)
	per := (len(sorted) + k - 1) / k
	for i, t := range sorted {
		out[i/per] = append(out[i/per], t)
	}
	return out
}

// Run executes every drone's share concurrently: each mission runs its
// conversation loop — flight, rendering, SAX recognition, negotiation — in
// its own goroutine against the shared world, which serialises world
// mutation internally (orchard lock) and per-person state (collaborator
// locks). Per-drone flight clocks remain independent, so the fleet makespan
// is the maximum per-drone time; host wall-clock now approaches that
// makespan instead of the per-drone sum. The aggregate report is assembled
// in drone order, so its layout is deterministic even though negotiation
// interleaving is schedule-dependent.
func (f *Fleet) Run() (FleetReport, error) {
	parts := PartitionTraps(f.World.UnreadTraps(), len(f.Missions))
	reports := make([]Report, len(f.Missions))
	errs := make([]error, len(f.Missions))
	var wg sync.WaitGroup
	for i, m := range f.Missions {
		wg.Add(1)
		go func(i int, m *Mission) {
			defer wg.Done()
			reports[i], errs[i] = m.runOver(parts[i])
		}(i, m)
	}
	wg.Wait()

	var rep FleetReport
	for i, m := range f.Missions {
		if errs[i] != nil {
			return rep, fmt.Errorf("mission: drone %d: %w", i, errs[i])
		}
		r := reports[i]
		rep.PerDrone = append(rep.PerDrone, r)
		rep.TrapsTotal += r.TrapsTotal
		rep.TrapsRead += r.TrapsRead
		rep.Negotiations += r.Negotiations
		rep.Granted += r.Granted
		rep.Denied += r.Denied
		rep.NoResponse += r.NoResponse
		rep.Aborted += r.Aborted
		rep.MeanBatteryUsed += r.BatteryUsed
		if t := m.Sys.Agent.Clock(); t > rep.MaxDroneTime {
			rep.MaxDroneTime = t
		}
	}
	rep.MeanBatteryUsed /= float64(len(f.Missions))
	return rep, nil
}
