// Package protocol implements the paper's negotiated-access conversation
// (§III, Fig 3): the drone approaches a human collaborator, pokes for
// attention, waits for the AttentionGained sign, flies the rectangle
// pattern to request the collaborator's area and acts on the Yes/No answer.
//
// The engine is deliberately decoupled from flight dynamics and vision
// through the Env interface; the full-stack binding (render → recognise) is
// assembled in internal/core. The central safety invariant — the drone
// NEVER enters the human's area without an explicit Yes — is enforced here
// and property-tested against adversarial environments.
package protocol

import (
	"errors"
	"fmt"
	"time"

	"hdc/internal/body"
	"hdc/internal/flight"
	"hdc/internal/telemetry"
)

// Phase is the engine's conversational state. Enums start at 1.
type Phase int

// Conversation phases, in nominal order.
const (
	PhaseIdle Phase = iota + 1
	PhaseApproach
	PhasePoke
	PhaseAwaitAttention
	PhaseRequestArea
	PhaseAwaitAnswer
	PhaseEnter
	PhaseRetreat
	PhaseAborted
)

// String implements fmt.Stringer.
func (p Phase) String() string {
	switch p {
	case PhaseIdle:
		return "Idle"
	case PhaseApproach:
		return "Approach"
	case PhasePoke:
		return "Poke"
	case PhaseAwaitAttention:
		return "AwaitAttention"
	case PhaseRequestArea:
		return "RequestArea"
	case PhaseAwaitAnswer:
		return "AwaitAnswer"
	case PhaseEnter:
		return "Enter"
	case PhaseRetreat:
		return "Retreat"
	case PhaseAborted:
		return "Aborted"
	default:
		return fmt.Sprintf("Phase(%d)", int(p))
	}
}

// Outcome is the conversation's final result.
type Outcome int

// Possible outcomes.
const (
	// OutcomeGranted: the human answered Yes; the drone entered the area.
	OutcomeGranted Outcome = iota + 1
	// OutcomeDenied: the human answered No; the drone retreated.
	OutcomeDenied
	// OutcomeNoResponse: attention or answer never arrived; the drone
	// retreated.
	OutcomeNoResponse
	// OutcomeAborted: a safety condition interrupted the conversation.
	OutcomeAborted
)

// String implements fmt.Stringer.
func (o Outcome) String() string {
	switch o {
	case OutcomeGranted:
		return "Granted"
	case OutcomeDenied:
		return "Denied"
	case OutcomeNoResponse:
		return "NoResponse"
	case OutcomeAborted:
		return "Aborted"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// ErrSafetyAbort is returned by Env methods to signal that a safety monitor
// tripped (low battery, geofence, proximity): the engine switches the
// all-round light to danger and aborts.
var ErrSafetyAbort = errors.New("protocol: safety abort")

// Env is the world the engine acts in. Implementations bind it to the
// simulated (or, one day, real) drone and collaborator.
type Env interface {
	// FlyPattern executes a flight pattern (Cruise = approach the
	// stand-off point, Poke, Rectangle, HeadTurn/Nod for drone answers,
	// Land etc.).
	FlyPattern(p flight.Pattern) error
	// PerceiveSign watches the collaborator for up to timeout and returns
	// the recognised sign. ok is false when nothing was recognised.
	PerceiveSign(timeout time.Duration) (sign body.Sign, ok bool, err error)
	// EnterArea moves the drone into the negotiated area (only called
	// after a Yes — the invariant under test).
	EnterArea() error
	// Retreat backs the drone away from the collaborator.
	Retreat() error
	// SignalDanger switches the all-round light to the danger display.
	SignalDanger()
	// Now returns the current simulation time.
	Now() time.Duration
}

// Config tunes the engine.
type Config struct {
	// PokeRetries is how many pokes are attempted before giving up
	// (default 3).
	PokeRetries int
	// AttentionTimeout is the wait for AttentionGained after each poke
	// (default 6 s).
	AttentionTimeout time.Duration
	// RequestRetries is how many rectangle requests are flown (default 2).
	RequestRetries int
	// AnswerTimeout is the wait for Yes/No after each request (default 8 s).
	AnswerTimeout time.Duration
	// AcknowledgeAnswers makes the drone confirm the human's answer with
	// the corresponding pattern (Nod after Yes, HeadTurn after No) —
	// closing the communication loop embodied-style.
	AcknowledgeAnswers bool
}

func (c Config) withDefaults() Config {
	if c.PokeRetries == 0 {
		c.PokeRetries = 3
	}
	if c.AttentionTimeout == 0 {
		c.AttentionTimeout = 6 * time.Second
	}
	if c.RequestRetries == 0 {
		c.RequestRetries = 2
	}
	if c.AnswerTimeout == 0 {
		c.AnswerTimeout = 8 * time.Second
	}
	return c
}

// Result summarises one conversation.
type Result struct {
	Outcome     Outcome
	Phases      []Phase       // phase trace, in order entered
	Pokes       int           // pokes flown
	Requests    int           // rectangle requests flown
	Duration    time.Duration // conversation wall time (sim clock)
	GrantedSign body.Sign     // the answer sign when Granted/Denied
}

// Engine drives conversations. Create with NewEngine; safe for sequential
// reuse across conversations.
type Engine struct {
	cfg Config
	log *telemetry.Log
}

// NewEngine builds an engine; log may be nil (events discarded into a fresh
// private log).
func NewEngine(cfg Config, log *telemetry.Log) *Engine {
	if log == nil {
		log = telemetry.NewLog()
	}
	return &Engine{cfg: cfg.withDefaults(), log: log}
}

// Negotiate runs one full conversation against env and returns its result.
// Every Env error other than ErrSafetyAbort is propagated; ErrSafetyAbort
// produces OutcomeAborted with the danger signal raised.
func (e *Engine) Negotiate(env Env) (Result, error) {
	start := env.Now()
	res := Result{}
	enter := func(p Phase) {
		res.Phases = append(res.Phases, p)
		e.log.Emit(env.Now(), "protocol", "phase", p.String())
	}
	abort := func() (Result, error) {
		env.SignalDanger()
		enter(PhaseAborted)
		res.Outcome = OutcomeAborted
		res.Duration = env.Now() - start
		return res, nil
	}

	// Approach the stand-off point.
	enter(PhaseApproach)
	if err := env.FlyPattern(flight.PatternCruise); err != nil {
		if errors.Is(err, ErrSafetyAbort) {
			return abort()
		}
		return res, fmt.Errorf("protocol: approach: %w", err)
	}

	// Poke until attention is gained.
	attention := false
	for attempt := 0; attempt < e.cfg.PokeRetries && !attention; attempt++ {
		enter(PhasePoke)
		res.Pokes++
		if err := env.FlyPattern(flight.PatternPoke); err != nil {
			if errors.Is(err, ErrSafetyAbort) {
				return abort()
			}
			return res, fmt.Errorf("protocol: poke: %w", err)
		}
		enter(PhaseAwaitAttention)
		sign, ok, err := env.PerceiveSign(e.cfg.AttentionTimeout)
		if err != nil {
			if errors.Is(err, ErrSafetyAbort) {
				return abort()
			}
			return res, fmt.Errorf("protocol: await attention: %w", err)
		}
		if ok && sign == body.SignAttention {
			attention = true
		}
	}
	if !attention {
		e.log.Emit(env.Now(), "protocol", "no-attention", "collaborator unresponsive")
		return e.retreat(env, &res, start, OutcomeNoResponse, enter)
	}

	// Request the area and act on the answer.
	for attempt := 0; attempt < e.cfg.RequestRetries; attempt++ {
		enter(PhaseRequestArea)
		res.Requests++
		if err := env.FlyPattern(flight.PatternRectangle); err != nil {
			if errors.Is(err, ErrSafetyAbort) {
				return abort()
			}
			return res, fmt.Errorf("protocol: request: %w", err)
		}
		enter(PhaseAwaitAnswer)
		sign, ok, err := env.PerceiveSign(e.cfg.AnswerTimeout)
		if err != nil {
			if errors.Is(err, ErrSafetyAbort) {
				return abort()
			}
			return res, fmt.Errorf("protocol: await answer: %w", err)
		}
		if !ok {
			continue
		}
		switch sign {
		case body.SignYes:
			res.GrantedSign = sign
			if e.cfg.AcknowledgeAnswers {
				if err := env.FlyPattern(flight.PatternNod); err != nil && errors.Is(err, ErrSafetyAbort) {
					return abort()
				}
			}
			enter(PhaseEnter)
			if err := env.EnterArea(); err != nil {
				if errors.Is(err, ErrSafetyAbort) {
					return abort()
				}
				return res, fmt.Errorf("protocol: enter: %w", err)
			}
			res.Outcome = OutcomeGranted
			res.Duration = env.Now() - start
			e.log.Emit(env.Now(), "protocol", "granted", "area entered after Yes")
			return res, nil
		case body.SignNo:
			res.GrantedSign = sign
			if e.cfg.AcknowledgeAnswers {
				if err := env.FlyPattern(flight.PatternHeadTurn); err != nil && errors.Is(err, ErrSafetyAbort) {
					return abort()
				}
			}
			e.log.Emit(env.Now(), "protocol", "denied", "No sign received")
			return e.retreat(env, &res, start, OutcomeDenied, enter)
		default:
			// AttentionGained again or an unexpected sign: re-request.
			continue
		}
	}
	e.log.Emit(env.Now(), "protocol", "no-answer", "request retries exhausted")
	return e.retreat(env, &res, start, OutcomeNoResponse, enter)
}

func (e *Engine) retreat(env Env, res *Result, start time.Duration, o Outcome, enter func(Phase)) (Result, error) {
	enter(PhaseRetreat)
	if err := env.Retreat(); err != nil {
		if errors.Is(err, ErrSafetyAbort) {
			env.SignalDanger()
			enter(PhaseAborted)
			res.Outcome = OutcomeAborted
			res.Duration = env.Now() - start
			return *res, nil
		}
		return *res, fmt.Errorf("protocol: retreat: %w", err)
	}
	res.Outcome = o
	res.Duration = env.Now() - start
	return *res, nil
}
