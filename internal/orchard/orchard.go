// Package orchard simulates the paper's motivating environment (§I): a
// cherry plantation with insect fly traps the drone must read, and humans —
// supervisors, workers, visitors — moving between the rows. Pest counts in
// the traps accumulate stochastically (after the Drosophila monitoring of
// the paper's ref [9]); a trap whose count crosses the action threshold is
// what makes the mission urgent, and a human standing near a trap is what
// forces the negotiated access of Fig 3.
package orchard

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"hdc/internal/geom"
	"hdc/internal/human"
)

// Trap is one insect trap hung in a tree row.
type Trap struct {
	ID        int
	Pos       geom.Vec2
	PestCount int
	LastRead  time.Duration // sim time of the last successful read; -1 never
	ReadCount int
}

// NeedsAction reports whether the trap's count crossed the spray-decision
// threshold.
func (t *Trap) NeedsAction(threshold int) bool { return t.PestCount >= threshold }

// Config sizes the orchard.
type Config struct {
	Rows        int     // tree rows (default 8)
	Cols        int     // trees per row (default 12)
	RowSpacing  float64 // m between rows (default 4)
	TreeSpacing float64 // m between trees in a row (default 3)
	TrapEvery   int     // a trap every n-th tree (default 6)
	// PestRatePerHour is the mean arrival rate per trap (default 1.2).
	PestRatePerHour float64
	// Humans is the number of collaborators to scatter (default 3; one of
	// each role, then cycling). Negative means a world with no humans at
	// all — no negotiations ever trigger.
	Humans int
	// WalkStepM bounds human movement per simulation step (default 1).
	WalkStepM float64
}

func (c Config) withDefaults() Config {
	if c.Rows == 0 {
		c.Rows = 8
	}
	if c.Cols == 0 {
		c.Cols = 12
	}
	if c.RowSpacing == 0 {
		c.RowSpacing = 4
	}
	if c.TreeSpacing == 0 {
		c.TreeSpacing = 3
	}
	if c.TrapEvery == 0 {
		c.TrapEvery = 6
	}
	if c.PestRatePerHour == 0 {
		c.PestRatePerHour = 1.2
	}
	if c.Humans == 0 {
		c.Humans = 3
	}
	if c.Humans < 0 {
		c.Humans = 0
	}
	if c.WalkStepM == 0 {
		c.WalkStepM = 1
	}
	return c
}

// Orchard is the world state. Its methods synchronise on an internal mutex
// so several drones can share one world (the fleet runs its per-drone
// mission loops concurrently); collaborators additionally guard their own
// state, letting a negotiation proceed while the world stepper moves other
// people. Direct field iteration (Traps, People) is only safe once no
// concurrent missions are running.
type Orchard struct {
	Cfg    Config
	Traps  []*Trap
	People []*human.Collaborator

	mu    sync.Mutex
	rng   *rand.Rand
	clock time.Duration
}

// Generate builds a reproducible orchard from a seed source.
func Generate(cfg Config, rng *rand.Rand) (*Orchard, error) {
	if rng == nil {
		return nil, errors.New("orchard: nil rng")
	}
	cfg = cfg.withDefaults()
	o := &Orchard{Cfg: cfg, rng: rng}

	id := 0
	for r := 0; r < cfg.Rows; r++ {
		for c := 0; c < cfg.Cols; c++ {
			treeIdx := r*cfg.Cols + c
			if treeIdx%cfg.TrapEvery != 0 {
				continue
			}
			o.Traps = append(o.Traps, &Trap{
				ID:       id,
				Pos:      geom.V2(float64(c)*cfg.TreeSpacing, float64(r)*cfg.RowSpacing),
				LastRead: -1,
			})
			id++
		}
	}
	if len(o.Traps) == 0 {
		return nil, fmt.Errorf("orchard: configuration yields no traps (%+v)", cfg)
	}

	roles := human.Roles()
	for i := 0; i < cfg.Humans; i++ {
		pos := geom.V2(
			rng.Float64()*float64(cfg.Cols-1)*cfg.TreeSpacing,
			rng.Float64()*float64(cfg.Rows-1)*cfg.RowSpacing,
		)
		// Each collaborator draws from their own deterministic stream so
		// concurrent drones negotiating with different people never contend
		// on (or race over) one generator.
		person, err := human.New(
			fmt.Sprintf("%s-%d", roles[i%len(roles)], i),
			roles[i%len(roles)], pos, rand.New(rand.NewSource(rng.Int63())),
		)
		if err != nil {
			return nil, err
		}
		o.People = append(o.People, person)
	}
	return o, nil
}

// Clock returns the world time.
func (o *Orchard) Clock() time.Duration {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.clock
}

// Bounds returns the orchard's axis-aligned extent.
func (o *Orchard) Bounds() (min, max geom.Vec2) {
	max = geom.V2(
		float64(o.Cfg.Cols-1)*o.Cfg.TreeSpacing,
		float64(o.Cfg.Rows-1)*o.Cfg.RowSpacing,
	)
	return geom.V2(0, 0), max
}

// Step advances the world: pests arrive (Poisson), humans wander inside the
// bounds.
func (o *Orchard) Step(dt time.Duration) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.clock += dt
	hours := dt.Hours()
	for _, tr := range o.Traps {
		tr.PestCount += poisson(o.rng, o.Cfg.PestRatePerHour*hours)
	}
	lo, hi := o.Bounds()
	for _, p := range o.People {
		p.WalkWithin(o.Cfg.WalkStepM, lo, hi)
	}
}

// poisson draws a Poisson variate by Knuth's method (rates here are tiny).
func poisson(rng *rand.Rand, lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	l := math.Exp(-lambda)
	k := 0
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
		if k > 1000 {
			return k // rate misuse guard
		}
	}
}

// HumanNear returns the collaborator closest to pos within radius, or nil.
func (o *Orchard) HumanNear(pos geom.Vec2, radius float64) *human.Collaborator {
	o.mu.Lock()
	defer o.mu.Unlock()
	var best *human.Collaborator
	bestD := radius
	for _, p := range o.People {
		if d := p.Position().Dist(pos); d <= bestD {
			best = p
			bestD = d
		}
	}
	return best
}

// PeoplePositions returns a snapshot of every collaborator's position, in
// People order — what the drones publish to their safety monitors.
func (o *Orchard) PeoplePositions() []geom.Vec2 {
	o.mu.Lock()
	defer o.mu.Unlock()
	pos := make([]geom.Vec2, len(o.People))
	for i, p := range o.People {
		pos[i] = p.Position()
	}
	return pos
}

// ReadTrap records a successful read at the world clock and returns the
// count.
func (o *Orchard) ReadTrap(t *Trap) int {
	o.mu.Lock()
	defer o.mu.Unlock()
	t.LastRead = o.clock
	t.ReadCount++
	return t.PestCount
}

// UnreadTraps returns traps never read, oldest position order.
func (o *Orchard) UnreadTraps() []*Trap {
	o.mu.Lock()
	defer o.mu.Unlock()
	var out []*Trap
	for _, t := range o.Traps {
		if t.LastRead < 0 {
			out = append(out, t)
		}
	}
	return out
}

// ReadActionCount counts traps that have been read and sit at or above the
// pest threshold — the mission report's "needs spraying" figure, computed
// under the world lock so concurrent missions can report while others fly.
func (o *Orchard) ReadActionCount(threshold int) int {
	o.mu.Lock()
	defer o.mu.Unlock()
	n := 0
	for _, t := range o.Traps {
		if t.ReadCount > 0 && t.NeedsAction(threshold) {
			n++
		}
	}
	return n
}
