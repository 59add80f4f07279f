package ledring

import (
	"errors"
	"fmt"
)

// pulse.go implements the RGB take-off/landing signalling the paper's §II
// leaves for further work: "since in vertical take-off/landing situations
// directional lights are not necessary, a combination of RGB light signals
// may be used to indicate these flight patterns". Unlike the deprecated
// vertical array — whose up- and down-animations users could not tell
// apart — the pulse codes the two phases with *different colour pairs*, so
// a single glance suffices:
//
//	take-off: the whole ring alternates green ↔ white
//	landing:  the whole ring alternates white ↔ red
//
// (green = go/up, red = caution/down, matching the danger-colour
// conventions the paper cites).

// Pulse identifies an RGB whole-ring pulse pattern.
type Pulse int

// Pulse patterns.
const (
	PulseNone Pulse = iota
	PulseTakeOff
	PulseLanding
)

// String implements fmt.Stringer.
func (p Pulse) String() string {
	switch p {
	case PulseNone:
		return "none"
	case PulseTakeOff:
		return "take-off"
	case PulseLanding:
		return "landing"
	default:
		return fmt.Sprintf("Pulse(%d)", int(p))
	}
}

// pulseColors returns the alternating colour pair of a pulse.
func pulseColors(p Pulse) ([2]Color, error) {
	switch p {
	case PulseTakeOff:
		return [2]Color{Green, White}, nil
	case PulseLanding:
		return [2]Color{White, Red}, nil
	default:
		return [2]Color{}, fmt.Errorf("ledring: no colours for pulse %v", p)
	}
}

// StartPulse switches the whole ring into the given pulse pattern; ticks
// alternate the two colours.
func (r *Ring) StartPulse(p Pulse) error {
	if p != PulseTakeOff && p != PulseLanding {
		return fmt.Errorf("ledring: invalid pulse %v", p)
	}
	r.pulse = p
	r.pulsePhase = 0
	r.applyPulse()
	return nil
}

// TickPulse advances the pulse animation one half-period.
func (r *Ring) TickPulse() {
	if r.pulse == PulseNone {
		return
	}
	r.pulsePhase++
	r.applyPulse()
}

func (r *Ring) applyPulse() {
	colors, err := pulseColors(r.pulse)
	if err != nil {
		return
	}
	c := colors[r.pulsePhase%2]
	for i := range r.leds {
		r.leds[i] = c
	}
}

// ClassifyPulse is the observer side: given two consecutive whole-ring
// frames (the colour sequence a bystander sees), identify the pulse. It
// returns an error for sequences that are not a recognised pulse — e.g.
// the deprecated vertical array's animation, which is what made that
// design confusing.
func ClassifyPulse(frameA, frameB []Color) (Pulse, error) {
	colorOf := func(frame []Color) (Color, bool) {
		if len(frame) == 0 {
			return Off, false
		}
		first := frame[0]
		for _, c := range frame[1:] {
			if c != first {
				return Off, false
			}
		}
		return first, true
	}
	a, okA := colorOf(frameA)
	b, okB := colorOf(frameB)
	if !okA || !okB {
		return PulseNone, errors.New("ledring: frames are not whole-ring pulses")
	}
	pair := [2]Color{a, b}
	rev := [2]Color{b, a}
	for _, p := range []Pulse{PulseTakeOff, PulseLanding} {
		want, _ := pulseColors(p)
		if pair == want || rev == want {
			return p, nil
		}
	}
	return PulseNone, fmt.Errorf("ledring: unknown pulse pair %v/%v", a, b)
}
