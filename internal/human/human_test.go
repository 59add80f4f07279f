package human

import (
	"math/rand"
	"testing"

	"hdc/internal/body"
	"hdc/internal/geom"
)

func TestRoleStringsAndValidity(t *testing.T) {
	for _, r := range Roles() {
		if !r.Valid() || r.String() == "" {
			t.Fatalf("role %d invalid", int(r))
		}
	}
	if Role(0).Valid() {
		t.Fatal("zero role should be invalid")
	}
	if Role(9).String() == "" {
		t.Fatal("unknown role string empty")
	}
}

func TestDefaultProfiles(t *testing.T) {
	sup, err := DefaultProfile(RoleSupervisor)
	if err != nil {
		t.Fatal(err)
	}
	wrk, _ := DefaultProfile(RoleWorker)
	vis, _ := DefaultProfile(RoleVisitor)
	// Training gradient: supervisor ≥ worker ≥ visitor on every competence
	// axis.
	if !(sup.AttentionProb > wrk.AttentionProb && wrk.AttentionProb > vis.AttentionProb) {
		t.Fatal("attention gradient violated")
	}
	if !(sup.CorrectSignProb > wrk.CorrectSignProb && wrk.CorrectSignProb > vis.CorrectSignProb) {
		t.Fatal("accuracy gradient violated")
	}
	if !(sup.ReactionMean < wrk.ReactionMean && wrk.ReactionMean < vis.ReactionMean) {
		t.Fatal("latency gradient violated")
	}
	if !(sup.JitterStdDeg < wrk.JitterStdDeg && wrk.JitterStdDeg < vis.JitterStdDeg) {
		t.Fatal("jitter gradient violated")
	}
	if _, err := DefaultProfile(Role(0)); err == nil {
		t.Fatal("invalid role should fail")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New("x", RoleWorker, geom.V2(0, 0), nil); err == nil {
		t.Fatal("nil rng should fail")
	}
	if _, err := New("x", Role(0), geom.V2(0, 0), rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("invalid role should fail")
	}
}

func TestRespondAttentionStatistics(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c, err := New("w", RoleWorker, geom.V2(0, 0), rng)
	if err != nil {
		t.Fatal(err)
	}
	responded, correct := 0, 0
	const trials = 2000
	for i := 0; i < trials; i++ {
		r := c.RespondAttention()
		if !r.Responded {
			continue
		}
		responded++
		if r.Sign == body.SignAttention {
			correct++
		}
		if r.Intended != body.SignAttention {
			t.Fatal("intent must be Attention")
		}
		if r.Latency < 0 {
			t.Fatal("negative latency")
		}
	}
	frac := float64(responded) / trials
	if frac < 0.88 || frac > 0.96 {
		t.Fatalf("worker attention rate %v outside [0.88,0.96]", frac)
	}
	acc := float64(correct) / float64(responded)
	if acc < 0.89 || acc > 0.97 {
		t.Fatalf("worker sign accuracy %v outside [0.89,0.97]", acc)
	}
}

func TestRespondAreaRequestGrantRate(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	c, _ := New("s", RoleSupervisor, geom.V2(0, 0), rng)
	yes := 0
	const trials = 2000
	for i := 0; i < trials; i++ {
		r := c.RespondAreaRequest()
		if !r.Responded {
			t.Fatal("area request responses always materialise (ignoring is modelled at attention)")
		}
		if r.Intended == body.SignYes {
			yes++
		}
	}
	frac := float64(yes) / trials
	if frac < 0.86 || frac > 0.94 {
		t.Fatalf("supervisor grant rate %v outside [0.86,0.94]", frac)
	}
}

func TestWrongSignIsNeverIntended(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c, _ := New("v", RoleVisitor, geom.V2(0, 0), rng)
	sawWrong := false
	for i := 0; i < 3000; i++ {
		r := c.RespondAreaRequest()
		if r.Sign != r.Intended {
			sawWrong = true
			if r.Sign == r.Intended {
				t.Fatal("inconsistent")
			}
			if !r.Sign.Valid() {
				t.Fatal("wrong sign must still be a valid sign")
			}
		}
	}
	if !sawWrong {
		t.Fatal("visitor error model never produced a wrong sign in 3000 trials")
	}
}

func TestBodyOptionsCarriesJitter(t *testing.T) {
	r := Response{Jitter: 4.2}
	if r.BodyOptions().ArmJitterDeg != 4.2 {
		t.Fatal("jitter not forwarded")
	}
}

func TestWalkMovesWithinStep(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	c, _ := New("w", RoleWorker, geom.V2(10, 10), rng)
	for i := 0; i < 100; i++ {
		before := c.Pos
		c.walk(1.5)
		if d := c.Pos.Dist(before); d > 1.5+1e-9 {
			t.Fatalf("walk step %v exceeds limit", d)
		}
	}
	// Zero step is a no-op.
	before := c.Pos
	c.walk(0)
	if c.Pos != before {
		t.Fatal("zero step moved")
	}
}

func TestDeterminism(t *testing.T) {
	mk := func() []Response {
		rng := rand.New(rand.NewSource(42))
		c, _ := New("d", RoleVisitor, geom.V2(0, 0), rng)
		var out []Response
		for i := 0; i < 50; i++ {
			out = append(out, c.RespondAreaRequest())
		}
		return out
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("behaviour not reproducible at %d", i)
		}
	}
}

// Valid reports whether r is a defined role.
func (r Role) Valid() bool { return r >= RoleSupervisor && r <= RoleVisitor }
