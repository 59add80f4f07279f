// Package ledring models the paper's all-round-light: a ring of 10
// tri-colour LEDs mounted on the drone (§II, Fig 1) that signals flight
// direction to bystanders following FAA Part-107-style conventions (red on
// the port side, green on starboard, white aft), can be switched all-red as
// the danger/safety default, and optionally carries the vertical take-off/
// landing array the paper's user study rejected (kept behind a flag for the
// E11 ablation).
package ledring

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"hdc/internal/geom"
)

// Color is the displayable state of one tri-colour LED.
type Color int

// LED colours. Off is the zero value.
const (
	Off Color = iota
	Red
	Green
	White
)

// String implements fmt.Stringer.
func (c Color) String() string {
	switch c {
	case Off:
		return "off"
	case Red:
		return "red"
	case Green:
		return "green"
	case White:
		return "white"
	default:
		return fmt.Sprintf("Color(%d)", int(c))
	}
}

// rune returns a single-character glyph for terminal rendering.
func (c Color) rune() byte {
	switch c {
	case Red:
		return 'R'
	case Green:
		return 'G'
	case White:
		return 'W'
	default:
		return '.'
	}
}

// Mode is the ring's top-level state.
type Mode int

// Ring modes. Per the paper (and the red-danger literature it cites), the
// safety default is danger: a ring must be explicitly commanded into
// navigation display, and any safety trigger reverts it.
const (
	// ModeDanger shows all LEDs red — the default and the safety fallback.
	ModeDanger Mode = iota + 1
	// ModeNavigation shows the direction-coded red/green/white pattern.
	ModeNavigation
	// ModeOff extinguishes the ring (rotors off after landing, Fig 2).
	ModeOff
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeDanger:
		return "danger"
	case ModeNavigation:
		return "navigation"
	case ModeOff:
		return "off"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// DefaultLEDCount is the paper's ring size.
const DefaultLEDCount = 10

// Options configures a Ring.
type Options struct {
	// LEDCount is the number of LEDs around the ring (default 10).
	LEDCount int
	// VerticalArray enables the deprecated take-off/landing animation
	// column (user feedback: confusing; kept for the E11 ablation).
	VerticalArray int // number of LEDs in the column, 0 = absent
}

// Ring is the all-round-light state machine. Not safe for concurrent use;
// the owning drone serialises access.
type Ring struct {
	opts    Options
	mode    Mode
	heading geom.Heading // direction of controlled flight, body-relative display
	leds    []Color

	vert      []bool // vertical array on/off states
	vertPhase int
	vertDir   VerticalDir

	pulse      Pulse // active RGB pulse pattern (take-off/landing signalling)
	pulsePhase int
}

// VerticalDir is the animation direction of the vertical array.
type VerticalDir int

// Vertical animation directions.
const (
	VerticalOff VerticalDir = iota
	VerticalTakeOff
	VerticalLanding
)

// New constructs a ring in the danger (all-red) safety default.
func New(opts Options) (*Ring, error) {
	if opts.LEDCount == 0 {
		opts.LEDCount = DefaultLEDCount
	}
	if opts.LEDCount < 3 {
		return nil, fmt.Errorf("ledring: %d LEDs cannot encode direction", opts.LEDCount)
	}
	if opts.VerticalArray < 0 {
		return nil, errors.New("ledring: negative vertical array size")
	}
	r := &Ring{
		opts: opts,
		mode: ModeDanger,
		leds: make([]Color, opts.LEDCount),
		vert: make([]bool, opts.VerticalArray),
	}
	r.refresh()
	return r, nil
}

// Mode returns the current mode.
func (r *Ring) Mode() Mode { return r.mode }

// SetDanger switches the ring to the all-red danger display.
func (r *Ring) SetDanger() {
	r.mode = ModeDanger
	r.refresh()
}

// SetOff extinguishes the ring (only meaningful once rotors are off).
func (r *Ring) SetOff() {
	r.mode = ModeOff
	r.refresh()
}

// SetNavigation switches to the direction display for the given direction
// of controlled flight, expressed body-relative (0 = nose).
func (r *Ring) SetNavigation(dir geom.Heading) {
	r.mode = ModeNavigation
	r.heading = dir
	r.refresh()
}

// LEDs returns a copy of the current LED colours. Index 0 is the LED at the
// displayed flight direction; indices increase clockwise viewed from above.
func (r *Ring) LEDs() []Color {
	out := make([]Color, len(r.leds))
	copy(out, r.leds)
	return out
}

// refresh recomputes LED colours from mode/heading.
func (r *Ring) refresh() {
	switch r.mode {
	case ModeDanger:
		for i := range r.leds {
			r.leds[i] = Red
		}
	case ModeOff:
		for i := range r.leds {
			r.leds[i] = Off
		}
	case ModeNavigation:
		r.refreshNavigation()
	}
}

// refreshNavigation lays out the aviation colour convention around the
// ring, rotated with the direction of flight: green covers the starboard
// sector of the motion direction (0°–110° clockwise from it, including the
// leading LED), red the port sector (250°–360°), white strictly aft
// (110°–250°) — the layout of aircraft navigation lights the FAA summary
// the paper cites builds on.
func (r *Ring) refreshNavigation() {
	n := len(r.leds)
	for i := 0; i < n; i++ {
		// Angle of LED i relative to the flight direction, in degrees
		// clockwise; LED 0 sits at the drone's nose.
		rel := normDeg((float64(i)/float64(n))*360 - r.heading.Deg())
		switch {
		case rel >= 110 && rel <= 250:
			r.leds[i] = White // aft
		case rel < 110:
			r.leds[i] = Green // starboard, leading LED included
		default:
			r.leds[i] = Red // port
		}
	}
}

func normDeg(d float64) float64 {
	for d < 0 {
		d += 360
	}
	for d >= 360 {
		d -= 360
	}
	return d
}

// StartVertical begins the take-off (bottom→top) or landing (top→bottom)
// animation on the vertical array. It returns an error when the array is
// absent.
func (r *Ring) StartVertical(dir VerticalDir) error {
	if len(r.vert) == 0 {
		return errors.New("ledring: no vertical array fitted")
	}
	r.vertDir = dir
	r.vertPhase = 0
	r.stepVerticalPattern()
	return nil
}

// TickVertical advances the animation one step.
func (r *Ring) TickVertical() {
	if r.vertDir == VerticalOff || len(r.vert) == 0 {
		return
	}
	r.vertPhase++
	r.stepVerticalPattern()
}

func (r *Ring) stepVerticalPattern() {
	n := len(r.vert)
	pos := r.vertPhase % n
	for i := range r.vert {
		r.vert[i] = false
	}
	switch r.vertDir {
	case VerticalTakeOff:
		r.vert[pos] = true // index 0 = bottom; light travels upwards
	case VerticalLanding:
		r.vert[n-1-pos] = true // light travels downwards
	}
}

// Vertical returns a copy of the vertical array states (index 0 = bottom).
func (r *Ring) Vertical() []bool {
	out := make([]bool, len(r.vert))
	copy(out, r.vert)
	return out
}

// Render draws the ring as terminal art: a circle of glyphs (R/G/W/.) with
// the nose at the top — the harness uses it to regenerate Fig 1.
func (r *Ring) Render() string {
	n := len(r.leds)
	const size = 11
	grid := make([][]byte, size)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", size*2))
	}
	cx, cy := float64(size)-1, float64(size/2)
	for i, c := range r.leds {
		ang := geom.Deg2Rad(float64(i) / float64(n) * 360)
		x := int(cx + 9*math.Sin(ang))
		y := int(cy - 4.5*math.Cos(ang))
		if y >= 0 && y < size && x >= 0 && x < size*2 {
			grid[y][x] = c.rune()
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "mode=%s", r.mode)
	if r.mode == ModeNavigation {
		fmt.Fprintf(&sb, " dir=%s", r.heading)
	}
	sb.WriteByte('\n')
	for _, row := range grid {
		sb.Write(row)
		sb.WriteByte('\n')
	}
	return sb.String()
}
