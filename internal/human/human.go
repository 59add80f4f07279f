// Package human models the collaborators of the paper's user stories (§II):
// the orchard supervisor (well trained), orchard worker (partially trained)
// and orchard visitor (untrained). Each role answers drone requests with a
// role-dependent probability of producing the correct marshalling sign,
// signing precision (arm jitter) and reaction latency — the behavioural
// substrate for the negotiation and mission experiments.
package human

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"hdc/internal/body"
	"hdc/internal/geom"
)

// Role is the training level of a collaborator. Enums start at 1.
type Role int

// The paper's three user-story characters.
const (
	// RoleSupervisor is well trained: prompt, accurate signing.
	RoleSupervisor Role = iota + 1
	// RoleWorker is partially trained: mostly accurate, slower.
	RoleWorker
	// RoleVisitor is untrained: frequently ignores the drone or signs
	// imprecisely.
	RoleVisitor
)

// Roles lists all roles.
func Roles() []Role { return []Role{RoleSupervisor, RoleWorker, RoleVisitor} }

// String implements fmt.Stringer.
func (r Role) String() string {
	switch r {
	case RoleSupervisor:
		return "Supervisor"
	case RoleWorker:
		return "Worker"
	case RoleVisitor:
		return "Visitor"
	default:
		return fmt.Sprintf("Role(%d)", int(r))
	}
}

// Profile is a role's behavioural parameters.
type Profile struct {
	// AttentionProb is the probability of responding to a poke at all.
	AttentionProb float64
	// CorrectSignProb is the probability that the produced sign is the
	// intended one (errors produce a uniformly random other sign).
	CorrectSignProb float64
	// JitterStdDeg is the arm-angle imprecision when signing.
	JitterStdDeg float64
	// ReactionMean is the mean delay before the sign is shown.
	ReactionMean time.Duration
	// ReactionStd is the spread of that delay.
	ReactionStd time.Duration
	// GrantProb is the probability the human answers Yes to an area
	// request (vs No).
	GrantProb float64
}

// DefaultProfile returns the calibrated behaviour for a role.
func DefaultProfile(r Role) (Profile, error) {
	switch r {
	case RoleSupervisor:
		return Profile{
			AttentionProb:   0.98,
			CorrectSignProb: 0.99,
			JitterStdDeg:    2,
			ReactionMean:    1200 * time.Millisecond,
			ReactionStd:     300 * time.Millisecond,
			GrantProb:       0.9,
		}, nil
	case RoleWorker:
		return Profile{
			AttentionProb:   0.92,
			CorrectSignProb: 0.93,
			JitterStdDeg:    5,
			ReactionMean:    2 * time.Second,
			ReactionStd:     700 * time.Millisecond,
			GrantProb:       0.8,
		}, nil
	case RoleVisitor:
		return Profile{
			AttentionProb:   0.7,
			CorrectSignProb: 0.75,
			JitterStdDeg:    10,
			ReactionMean:    3500 * time.Millisecond,
			ReactionStd:     1500 * time.Millisecond,
			GrantProb:       0.65,
		}, nil
	default:
		return Profile{}, fmt.Errorf("human: invalid role %d", int(r))
	}
}

// Collaborator is one human in the environment.
//
// Concurrency: a collaborator in a shared world may be observed by one drone
// while the world stepper moves them, so all behavioural methods and the
// Position/Heading/SetFacing accessors synchronise on an internal mutex. The
// exported Pos/Facing fields remain for single-goroutine construction and
// tests; concurrent code must go through the accessors.
type Collaborator struct {
	Name    string
	Role    Role
	Profile Profile
	Pos     geom.Vec2 // ground position (m); see concurrency note above
	Facing  geom.Heading

	mu  sync.Mutex
	rng *rand.Rand
}

// Position returns the collaborator's ground position.
func (c *Collaborator) Position() geom.Vec2 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.Pos
}

// Heading returns the direction the collaborator is facing.
func (c *Collaborator) Heading() geom.Heading {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.Facing
}

// SetFacing turns the collaborator.
func (c *Collaborator) SetFacing(h geom.Heading) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.Facing = h
}

// New creates a collaborator with the role's default profile. rng must be
// non-nil: every behavioural draw flows through it for reproducibility.
func New(name string, role Role, pos geom.Vec2, rng *rand.Rand) (*Collaborator, error) {
	if rng == nil {
		return nil, errors.New("human: nil rng")
	}
	prof, err := DefaultProfile(role)
	if err != nil {
		return nil, err
	}
	return &Collaborator{Name: name, Role: role, Profile: prof, Pos: pos, rng: rng}, nil
}

// Response is what the collaborator does after being poked and asked.
type Response struct {
	Responded bool          // false: the human ignored the drone
	Sign      body.Sign     // sign actually produced (may be wrong!)
	Intended  body.Sign     // sign the human meant
	Latency   time.Duration // delay before the sign was shown
	Jitter    float64       // arm jitter applied (degrees)
}

// RespondAttention decides whether the human acknowledges a poke and, if
// so, produces the AttentionGained sign.
func (c *Collaborator) RespondAttention() Response {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.rng.Float64() > c.Profile.AttentionProb {
		return Response{Responded: false}
	}
	return c.produce(body.SignAttention)
}

// RespondAreaRequest decides the answer to "may I occupy your area?"
// (Fig 3): Yes with GrantProb, otherwise No — then realises the sign with
// role-dependent imperfection.
func (c *Collaborator) RespondAreaRequest() Response {
	c.mu.Lock()
	defer c.mu.Unlock()
	intended := body.SignNo
	if c.rng.Float64() < c.Profile.GrantProb {
		intended = body.SignYes
	}
	return c.produce(intended)
}

// produce realises an intended sign with the role's error model. Callers
// hold c.mu.
func (c *Collaborator) produce(intended body.Sign) Response {
	actual := intended
	if c.rng.Float64() > c.Profile.CorrectSignProb {
		actual = c.randomOtherSign(intended)
	}
	lat := c.Profile.ReactionMean + time.Duration(c.rng.NormFloat64()*float64(c.Profile.ReactionStd))
	if lat < 0 {
		lat = 0
	}
	return Response{
		Responded: true,
		Sign:      actual,
		Intended:  intended,
		Latency:   lat,
		Jitter:    c.rng.NormFloat64() * c.Profile.JitterStdDeg,
	}
}

func (c *Collaborator) randomOtherSign(not body.Sign) body.Sign {
	options := make([]body.Sign, 0, 2)
	for _, s := range body.AllSigns() {
		if s != not {
			options = append(options, s)
		}
	}
	return options[c.rng.Intn(len(options))]
}

// BodyOptions converts a response into figure options for rendering.
func (r Response) BodyOptions() body.Options {
	return body.Options{ArmJitterDeg: r.Jitter}
}

// WalkWithin moves the collaborator by a random step of at most stepM
// meters — the orchard world uses it to circulate workers between trees —
// with the destination clamped to the [lo, hi] rectangle, performed
// atomically so a concurrent observer never sees the unclamped intermediate
// position.
func (c *Collaborator) WalkWithin(stepM float64, lo, hi geom.Vec2) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.walk(stepM)
	c.Pos.X = geom.Clamp(c.Pos.X, lo.X, hi.X)
	c.Pos.Y = geom.Clamp(c.Pos.Y, lo.Y, hi.Y)
}

// walk implements the random step; callers hold c.mu.
func (c *Collaborator) walk(stepM float64) {
	if stepM <= 0 {
		return
	}
	ang := c.rng.Float64() * 2 * 3.141592653589793
	dist := c.rng.Float64() * stepM
	c.Pos = c.Pos.Add(geom.V2(dist, 0).Rotate(ang))
	c.Facing = geom.HeadingOf(geom.V2(dist, 0).Rotate(ang))
}
