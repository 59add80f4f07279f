package mission

import (
	"math/rand"
	"testing"
	"time"

	"hdc/internal/core"
	"hdc/internal/geom"
	"hdc/internal/orchard"
)

func newWorld(t testing.TB, cfg orchard.Config, seed int64) *orchard.Orchard {
	t.Helper()
	o, err := orchard.Generate(cfg, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func TestPlanRouteVisitsAll(t *testing.T) {
	o := newWorld(t, orchard.Config{}, 1)
	route := PlanRoute(geom.V2(0, 0), o.Traps)
	if len(route) != len(o.Traps) {
		t.Fatalf("route covers %d/%d traps", len(route), len(o.Traps))
	}
	seen := map[int]bool{}
	for _, tr := range route {
		if seen[tr.ID] {
			t.Fatalf("trap %d visited twice", tr.ID)
		}
		seen[tr.ID] = true
	}
}

func TestPlanRouteShorterThanNaive(t *testing.T) {
	o := newWorld(t, orchard.Config{Rows: 6, Cols: 10, TrapEvery: 3}, 2)
	start := geom.V2(0, 0)
	planned := RouteLength(start, PlanRoute(start, o.Traps))
	naive := RouteLength(start, o.Traps) // generation order
	if planned > naive {
		t.Fatalf("planned route %.1f m longer than naive %.1f m", planned, naive)
	}
}

func TestPlanRouteDegenerate(t *testing.T) {
	if PlanRoute(geom.V2(0, 0), nil) == nil {
		// empty route is fine, but must not panic
	}
	o := newWorld(t, orchard.Config{Rows: 1, Cols: 1, TrapEvery: 1}, 3)
	r := PlanRoute(geom.V2(5, 5), o.Traps)
	if len(r) != 1 {
		t.Fatalf("single trap route length %d", len(r))
	}
	// PlanRoute must not mutate the input slice.
	before := make([]*orchard.Trap, len(o.Traps))
	copy(before, o.Traps)
	PlanRoute(geom.V2(0, 0), o.Traps)
	for i := range before {
		if o.Traps[i] != before[i] {
			t.Fatal("input slice mutated")
		}
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, nil, Config{}); err == nil {
		t.Fatal("nil args should fail")
	}
}

func TestMissionRunSmallOrchard(t *testing.T) {
	// E13 smoke: a small orchard with humans; the mission reads most traps,
	// negotiates when blocked, and never ends with an inconsistent report.
	sys, err := core.NewSystem(core.WithSeed(21), core.WithHome(geom.V3(-5, -5, 0)))
	if err != nil {
		t.Fatal(err)
	}
	world := newWorld(t, orchard.Config{
		Rows: 4, Cols: 6, TrapEvery: 4, Humans: 2, PestRatePerHour: 40,
	}, 21)
	world.Step(2 * time.Hour) // let pests accumulate

	m, err := New(sys, world, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.TrapsTotal != 6 {
		t.Fatalf("traps total = %d, want 6", rep.TrapsTotal)
	}
	if rep.TrapsRead == 0 {
		t.Fatal("no traps read")
	}
	if rep.TrapsRead+rep.TrapsSkipped != rep.TrapsTotal {
		t.Fatalf("accounting: %+v", rep)
	}
	if rep.Granted+rep.Denied+rep.NoResponse+rep.Aborted > rep.Negotiations+1 {
		t.Fatalf("negotiation accounting: %+v", rep)
	}
	if rep.BatteryUsed <= 0 {
		t.Fatal("mission consumed no battery")
	}
	if rep.SimTime <= 0 {
		t.Fatal("world clock did not advance")
	}
	if rep.String() == "" {
		t.Fatal("empty report string")
	}
}

func TestMissionBlockedTrapNegotiates(t *testing.T) {
	// Pin a human right on top of the first trap: the mission MUST
	// negotiate rather than enter silently — the paper's core safety story.
	sys, err := core.NewSystem(core.WithSeed(31), core.WithHome(geom.V3(-8, -8, 0)))
	if err != nil {
		t.Fatal(err)
	}
	world := newWorld(t, orchard.Config{
		Rows: 2, Cols: 3, TrapEvery: 3, Humans: 1, WalkStepM: 0.01,
	}, 31)
	// Park the human on the nearest trap to the start.
	route := PlanRoute(geom.V2(-8, -8), world.Traps)
	world.People[0].Pos = route[0].Pos

	m, err := New(sys, world, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Negotiations == 0 {
		t.Fatalf("blocked trap read without negotiation: %+v", rep)
	}
	// The visit record for the blocked trap is negotiated.
	found := false
	for _, v := range rep.Visits {
		if v.TrapID == route[0].ID && v.Negotiated {
			found = true
		}
	}
	if !found {
		t.Fatalf("no negotiated visit for blocked trap: %+v", rep.Visits)
	}
}

func TestMissionDeterministic(t *testing.T) {
	run := func() Report {
		sys, err := core.NewSystem(core.WithSeed(77), core.WithHome(geom.V3(-5, -5, 0)))
		if err != nil {
			t.Fatal(err)
		}
		world := newWorld(t, orchard.Config{Rows: 3, Cols: 4, TrapEvery: 4, Humans: 2}, 77)
		m, err := New(sys, world, Config{})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if a.TrapsRead != b.TrapsRead || a.Negotiations != b.Negotiations || a.Granted != b.Granted {
		t.Fatalf("mission not reproducible: %+v vs %+v", a, b)
	}
}

func TestRouteLength(t *testing.T) {
	tr := []*orchard.Trap{{Pos: geom.V2(3, 4)}, {Pos: geom.V2(3, 0)}}
	if l := RouteLength(geom.V2(0, 0), tr); l != 9 {
		t.Fatalf("route length %v, want 9", l)
	}
	if RouteLength(geom.V2(0, 0), nil) != 0 {
		t.Fatal("empty route should be 0")
	}
}

// RouteLength measures a tour's ground length from start.
func RouteLength(start geom.Vec2, route []*orchard.Trap) float64 {
	var total float64
	cur := start
	for _, t := range route {
		total += cur.Dist(t.Pos)
		cur = t.Pos
	}
	return total
}
