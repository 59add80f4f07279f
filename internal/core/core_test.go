package core

import (
	"math/rand"
	"testing"

	"hdc/internal/flight"
	"hdc/internal/geom"
	"hdc/internal/human"
	"hdc/internal/ledring"
	"hdc/internal/protocol"
)

func newSystem(t testing.TB, opts ...Option) *System {
	t.Helper()
	s, err := NewSystem(opts...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewSystemDefaults(t *testing.T) {
	s := newSystem(t)
	if s.Agent == nil || s.Rec == nil || s.Rend == nil || s.Engine == nil {
		t.Fatal("missing subsystem")
	}
	if s.Rec.Database().Len() == 0 {
		t.Fatal("references not built")
	}
	if s.Agent.Ring.Mode() != ledring.ModeDanger {
		t.Fatal("ring must boot in danger mode")
	}
}

func TestEnsureAirborne(t *testing.T) {
	s := newSystem(t)
	if err := s.EnsureAirborne(); err != nil {
		t.Fatal(err)
	}
	if s.Agent.D.S.Pos.Z < 3 {
		t.Fatalf("not airborne: %v", s.Agent.D.S.Pos)
	}
	// Idempotent.
	if err := s.EnsureAirborne(); err != nil {
		t.Fatal(err)
	}
}

func TestConverseFullStackSupervisor(t *testing.T) {
	// End-to-end Fig 3: flight patterns, rendered frames, SAX recognition,
	// negotiated outcome — across several seeds the supervisor mostly
	// grants, and every grant follows a perceived Yes.
	granted, denied, other := 0, 0, 0
	for seed := int64(1); seed <= 10; seed++ {
		s := newSystem(t, WithSeed(seed), WithHome(geom.V3(0, -20, 0)))
		rng := rand.New(rand.NewSource(seed * 7))
		c, err := human.New("sup", human.RoleSupervisor, geom.V2(0, 0), rng)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Converse(c)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		switch res.Outcome {
		case protocol.OutcomeGranted:
			granted++
		case protocol.OutcomeDenied:
			denied++
		default:
			other++
		}
	}
	if granted < 5 {
		t.Fatalf("granted %d/10 (denied %d, other %d) — full stack too lossy", granted, denied, other)
	}
}

func TestConverseNilHuman(t *testing.T) {
	s := newSystem(t)
	if _, err := s.Converse(nil); err == nil {
		t.Fatal("nil collaborator should fail")
	}
}

func TestStandoffPointGeometry(t *testing.T) {
	s := newSystem(t, WithHome(geom.V3(0, -30, 0)))
	rng := rand.New(rand.NewSource(2))
	c, _ := human.New("w", human.RoleWorker, geom.V2(0, 0), rng)
	p := s.StandoffPoint(c)
	if d := p.XY().Dist(c.Pos); d < 2.9 || d > 3.1 {
		t.Fatalf("standoff distance %v, want ≈3", d)
	}
	if p.Z != 5 {
		t.Fatalf("standoff altitude %v, want 5", p.Z)
	}
}

func TestConverseRespectsSafetyAbort(t *testing.T) {
	// A tiny battery forces a safety abort mid-conversation; the outcome
	// must be Aborted with the danger display raised, never an entry.
	s := newSystem(t,
		WithSeed(5),
		WithHome(geom.V3(0, -40, 0)),
	)
	// Drain the battery almost fully before conversing.
	if err := s.EnsureAirborne(); err != nil {
		t.Fatal(err)
	}
	for s.Agent.BatteryFrac() > 0.16 {
		if _, err := s.Agent.FlyPattern(flight.PatternHeadTurn, s.Agent.D.S.Pos); err != nil {
			break
		}
	}
	rng := rand.New(rand.NewSource(5))
	c, _ := human.New("sup", human.RoleSupervisor, geom.V2(0, 0), rng)
	res, err := s.Converse(c)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != protocol.OutcomeAborted {
		t.Fatalf("outcome = %v, want Aborted", res.Outcome)
	}
	if s.Agent.Ring.Mode() != ledring.ModeDanger {
		t.Fatal("danger display missing after abort")
	}
}

func TestSystemDeterministicBySeed(t *testing.T) {
	run := func() protocol.Outcome {
		s := newSystem(t, WithSeed(11), WithHome(geom.V3(0, -20, 0)))
		rng := rand.New(rand.NewSource(11))
		c, _ := human.New("w", human.RoleWorker, geom.V2(0, 0), rng)
		res, err := s.Converse(c)
		if err != nil {
			t.Fatal(err)
		}
		return res.Outcome
	}
	if run() != run() {
		t.Fatal("same seed produced different outcomes")
	}
}
