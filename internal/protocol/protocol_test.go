package protocol

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"hdc/internal/flight"
	"hdc/internal/geom"
	"hdc/internal/human"
)

func newHuman(t testing.TB, role human.Role, seed int64) (*human.Collaborator, *rand.Rand) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	h, err := human.New("h", role, geom.V2(0, 0), rng)
	if err != nil {
		t.Fatal(err)
	}
	return h, rng
}

func TestNegotiateSupervisorMostlyGranted(t *testing.T) {
	granted, denied, other := 0, 0, 0
	for seed := int64(0); seed < 40; seed++ {
		h, rng := newHuman(t, human.RoleSupervisor, seed)
		env := NewSimEnv(h, rng)
		eng := NewEngine(Config{}, nil)
		res, err := eng.Negotiate(env)
		if err != nil {
			t.Fatal(err)
		}
		switch res.Outcome {
		case OutcomeGranted:
			granted++
			if !env.Entered {
				t.Fatal("granted but never entered")
			}
		case OutcomeDenied:
			denied++
			if env.Entered {
				t.Fatal("denied but entered anyway")
			}
		default:
			other++
		}
		if env.Violated {
			t.Fatalf("seed %d: safety invariant violated", seed)
		}
	}
	// Supervisors grant 90% and almost always respond.
	if granted < 25 {
		t.Fatalf("granted %d/40, expected most", granted)
	}
	if granted+denied+other != 40 {
		t.Fatal("outcome accounting broken")
	}
}

func TestNegotiateVisitorOftenUnresponsive(t *testing.T) {
	noResp := 0
	for seed := int64(100); seed < 160; seed++ {
		h, rng := newHuman(t, human.RoleVisitor, seed)
		env := NewSimEnv(h, rng)
		// Visitors are slow: tight timeouts surface NoResponse.
		eng := NewEngine(Config{AttentionTimeout: 2 * time.Second, AnswerTimeout: 2 * time.Second}, nil)
		res, err := eng.Negotiate(env)
		if err != nil {
			t.Fatal(err)
		}
		if env.Violated {
			t.Fatal("safety invariant violated")
		}
		if res.Outcome == OutcomeNoResponse {
			noResp++
		}
	}
	if noResp == 0 {
		t.Fatal("tight timeouts against visitors should produce NoResponse outcomes")
	}
}

// TestSafetyInvariantProperty is the repository's core protocol property:
// across thousands of random behaviours, recognition errors and abort
// timings, the drone never enters without having perceived a Yes.
func TestSafetyInvariantProperty(t *testing.T) {
	for seed := int64(0); seed < 2000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		role := human.Roles()[rng.Intn(3)]
		h, err := human.New("p", role, geom.V2(0, 0), rng)
		if err != nil {
			t.Fatal(err)
		}
		env := NewSimEnv(h, rng)
		// Adversarial knobs: poor recognition, frequent misreads, random
		// aborts.
		env.RecognitionProb = 0.3 + rng.Float64()*0.7
		env.MisreadProb = rng.Float64() * 0.3
		if rng.Intn(3) == 0 {
			env.AbortAfter = time.Duration(rng.Intn(60)) * time.Second
		}
		eng := NewEngine(Config{
			PokeRetries:    1 + rng.Intn(4),
			RequestRetries: 1 + rng.Intn(3),
		}, nil)
		res, err := eng.Negotiate(env)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if env.Violated {
			t.Fatalf("seed %d: ENTERED WITHOUT YES (outcome %v)", seed, res.Outcome)
		}
		if res.Outcome == OutcomeAborted && !env.DangerOn {
			t.Fatalf("seed %d: aborted without danger signal", seed)
		}
		if env.Entered && res.Outcome != OutcomeGranted {
			t.Fatalf("seed %d: entered with outcome %v", seed, res.Outcome)
		}
	}
}

func TestAbortRaisesDanger(t *testing.T) {
	h, rng := newHuman(t, human.RoleSupervisor, 7)
	env := NewSimEnv(h, rng)
	env.AbortAfter = 1 * time.Second // trips during the approach
	eng := NewEngine(Config{}, nil)
	res, err := eng.Negotiate(env)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != OutcomeAborted {
		t.Fatalf("outcome = %v, want aborted", res.Outcome)
	}
	if !env.DangerOn {
		t.Fatal("danger light not raised on abort")
	}
	if env.Entered {
		t.Fatal("entered during abort")
	}
}

func TestPhaseTraceNominalGrant(t *testing.T) {
	// A cooperative scripted env: find a seed that grants first try, then
	// verify the canonical Fig 3 phase sequence.
	for seed := int64(0); seed < 50; seed++ {
		h, rng := newHuman(t, human.RoleSupervisor, seed)
		env := NewSimEnv(h, rng)
		eng := NewEngine(Config{}, nil)
		res, err := eng.Negotiate(env)
		if err != nil {
			t.Fatal(err)
		}
		if res.Outcome != OutcomeGranted || res.Pokes != 1 || res.Requests != 1 {
			continue
		}
		want := []Phase{PhaseApproach, PhasePoke, PhaseAwaitAttention, PhaseRequestArea, PhaseAwaitAnswer, PhaseEnter}
		if len(res.Phases) != len(want) {
			t.Fatalf("phase trace %v", res.Phases)
		}
		for i := range want {
			if res.Phases[i] != want[i] {
				t.Fatalf("phase[%d] = %v, want %v", i, res.Phases[i], want[i])
			}
		}
		return
	}
	t.Fatal("no clean first-try grant in 50 seeds — behaviour model broken?")
}

func TestAcknowledgeAnswersFliesNod(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		h, rng := newHuman(t, human.RoleSupervisor, seed)
		env := NewSimEnv(h, rng)
		eng := NewEngine(Config{AcknowledgeAnswers: true}, nil)
		res, err := eng.Negotiate(env)
		if err != nil {
			t.Fatal(err)
		}
		if res.Outcome != OutcomeGranted {
			continue
		}
		found := false
		for _, p := range env.Flown {
			if p == flight.PatternNod {
				found = true
			}
		}
		if !found {
			t.Fatalf("granted without Nod acknowledgement: %v", env.Flown)
		}
		return
	}
	t.Skip("no grant in 50 seeds")
}

func TestResultDurationMonotonic(t *testing.T) {
	h, rng := newHuman(t, human.RoleWorker, 3)
	env := NewSimEnv(h, rng)
	eng := NewEngine(Config{}, nil)
	res, err := eng.Negotiate(env)
	if err != nil {
		t.Fatal(err)
	}
	if res.Duration <= 0 {
		t.Fatalf("duration %v", res.Duration)
	}
	if env.Now() < res.Duration {
		t.Fatal("clock ran backwards")
	}
}

func TestEngineLogRecordsPhases(t *testing.T) {
	h, rng := newHuman(t, human.RoleSupervisor, 1)
	env := NewSimEnv(h, rng)
	eng := NewEngine(Config{}, nil)
	if _, err := eng.Negotiate(env); err != nil {
		t.Fatal(err)
	}
	phases := 0
	for _, e := range eng.log.Events() {
		if e.Kind == "phase" {
			phases++
		}
	}
	if phases < 4 {
		t.Fatalf("log has %d phase events", phases)
	}
}

// failEnv wraps SimEnv and injects a hard (non-abort) error.
type failEnv struct {
	*SimEnv
	failOn flight.Pattern
}

func (f *failEnv) FlyPattern(p flight.Pattern) error {
	if p == f.failOn {
		return errors.New("hardware fault")
	}
	return f.SimEnv.FlyPattern(p)
}

func TestHardErrorsPropagate(t *testing.T) {
	h, rng := newHuman(t, human.RoleSupervisor, 11)
	env := &failEnv{SimEnv: NewSimEnv(h, rng), failOn: flight.PatternPoke}
	eng := NewEngine(Config{}, nil)
	if _, err := eng.Negotiate(env); err == nil {
		t.Fatal("hardware fault should propagate")
	}
}

func TestOutcomePhaseStrings(t *testing.T) {
	for _, p := range []Phase{PhaseIdle, PhaseApproach, PhasePoke, PhaseAwaitAttention, PhaseRequestArea, PhaseAwaitAnswer, PhaseEnter, PhaseRetreat, PhaseAborted} {
		if p.String() == "" {
			t.Fatal("empty phase string")
		}
	}
	for _, o := range []Outcome{OutcomeGranted, OutcomeDenied, OutcomeNoResponse, OutcomeAborted} {
		if o.String() == "" {
			t.Fatal("empty outcome string")
		}
	}
	if Phase(99).String() == "" || Outcome(99).String() == "" {
		t.Fatal("unknown enum strings empty")
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.PokeRetries != 3 || cfg.RequestRetries != 2 {
		t.Fatalf("retry defaults: %+v", cfg)
	}
	if cfg.AttentionTimeout != 6*time.Second || cfg.AnswerTimeout != 8*time.Second {
		t.Fatalf("timeout defaults: %+v", cfg)
	}
}
