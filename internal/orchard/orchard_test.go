package orchard

import (
	"math/rand"
	"testing"
	"time"

	"hdc/internal/geom"
	"hdc/internal/human"
)

func newOrchard(t testing.TB, cfg Config, seed int64) *Orchard {
	t.Helper()
	o, err := Generate(cfg, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func TestGenerateDefaults(t *testing.T) {
	o := newOrchard(t, Config{}, 1)
	if len(o.Traps) == 0 {
		t.Fatal("no traps")
	}
	// 8 rows × 12 cols = 96 trees, a trap every 6th → 16 traps.
	if len(o.Traps) != 16 {
		t.Fatalf("traps = %d, want 16", len(o.Traps))
	}
	if len(o.People) != 3 {
		t.Fatalf("people = %d", len(o.People))
	}
	// One of each role by default.
	roles := map[human.Role]int{}
	for _, p := range o.People {
		roles[p.Role]++
	}
	if len(roles) != 3 {
		t.Fatalf("role coverage: %v", roles)
	}
	// Everything inside bounds.
	lo, hi := o.Bounds()
	for _, tr := range o.Traps {
		if tr.Pos.X < lo.X || tr.Pos.X > hi.X || tr.Pos.Y < lo.Y || tr.Pos.Y > hi.Y {
			t.Fatalf("trap outside bounds: %v", tr.Pos)
		}
	}
}

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(Config{}, nil); err == nil {
		t.Fatal("nil rng should fail")
	}
	// A trap interval larger than the tree count yields one trap at tree 0,
	// so force zero traps via an impossible interval is not reachable —
	// instead check tiny orchards still work.
	o := newOrchard(t, Config{Rows: 1, Cols: 2, TrapEvery: 1}, 2)
	if len(o.Traps) != 2 {
		t.Fatalf("tiny orchard traps = %d", len(o.Traps))
	}
}

func TestStepAccumulatesPests(t *testing.T) {
	o := newOrchard(t, Config{PestRatePerHour: 30}, 3)
	for i := 0; i < 24; i++ {
		o.Step(10 * time.Minute)
	}
	if o.Clock() != 4*time.Hour {
		t.Fatalf("clock = %v", o.Clock())
	}
	var total int
	for _, tr := range o.Traps {
		total += tr.PestCount
	}
	// 16 traps × 30/h × 4h = 1920 expected.
	if total < 1000 || total > 3000 {
		t.Fatalf("pest total %d far from expectation 1920", total)
	}
	actionable := 0
	for _, tr := range o.Traps {
		if tr.NeedsAction(1) {
			actionable++
		}
	}
	if actionable == 0 {
		t.Fatal("no trap crossed threshold 1")
	}
}

func TestStepKeepsHumansInBounds(t *testing.T) {
	o := newOrchard(t, Config{WalkStepM: 10}, 4)
	lo, hi := o.Bounds()
	for i := 0; i < 200; i++ {
		o.Step(time.Minute)
		for _, p := range o.People {
			if p.Pos.X < lo.X-1e-9 || p.Pos.X > hi.X+1e-9 ||
				p.Pos.Y < lo.Y-1e-9 || p.Pos.Y > hi.Y+1e-9 {
				t.Fatalf("human escaped: %v (bounds %v..%v)", p.Pos, lo, hi)
			}
		}
	}
}

func TestHumanNear(t *testing.T) {
	o := newOrchard(t, Config{}, 5)
	p := o.People[0]
	got := o.HumanNear(p.Pos, 0.5)
	if got == nil {
		t.Fatal("human at exact position not found")
	}
	far := geom.V2(-100, -100)
	if o.HumanNear(far, 5) != nil {
		t.Fatal("phantom human found")
	}
	// Nearest wins.
	a := o.People[0]
	a.Pos = geom.V2(0, 0)
	b := o.People[1]
	b.Pos = geom.V2(1, 0)
	got = o.HumanNear(geom.V2(0.2, 0), 5)
	if got != a {
		t.Fatalf("nearest = %v, want %v", got.Name, a.Name)
	}
}

func TestReadTrapBookkeeping(t *testing.T) {
	o := newOrchard(t, Config{PestRatePerHour: 60}, 6)
	o.Step(time.Hour)
	before := len(o.UnreadTraps())
	if before != len(o.Traps) {
		t.Fatal("all traps should start unread")
	}
	tr := o.Traps[0]
	count := o.ReadTrap(tr)
	if count != tr.PestCount {
		t.Fatal("read count mismatch")
	}
	if tr.LastRead != o.Clock() || tr.ReadCount != 1 {
		t.Fatalf("bookkeeping: %+v", tr)
	}
	if len(o.UnreadTraps()) != before-1 {
		t.Fatal("unread count wrong")
	}
}

func TestNeedsAction(t *testing.T) {
	tr := &Trap{PestCount: 5}
	if !tr.NeedsAction(5) || tr.NeedsAction(6) {
		t.Fatal("threshold logic wrong")
	}
}

func TestDeterministicGeneration(t *testing.T) {
	a := newOrchard(t, Config{}, 42)
	b := newOrchard(t, Config{}, 42)
	for i := range a.People {
		if a.People[i].Pos != b.People[i].Pos {
			t.Fatal("generation not reproducible")
		}
	}
	a.Step(time.Hour)
	b.Step(time.Hour)
	for i := range a.Traps {
		if a.Traps[i].PestCount != b.Traps[i].PestCount {
			t.Fatal("stepping not reproducible")
		}
	}
}

func TestPoissonSanity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var sum int
	const n = 20000
	for i := 0; i < n; i++ {
		sum += poisson(rng, 2.5)
	}
	mean := float64(sum) / n
	if mean < 2.3 || mean > 2.7 {
		t.Fatalf("poisson mean %v, want ≈2.5", mean)
	}
	if poisson(rng, 0) != 0 || poisson(rng, -1) != 0 {
		t.Fatal("non-positive rate should give 0")
	}
}
