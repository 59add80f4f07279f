package geom

import (
	"fmt"
	"math"
)

// Heading is a compass heading in radians clockwise from north (+Y),
// normalised to [0, 2π).
type Heading float64

// North is the zero heading.
const North Heading = 0

// NewHeading normalises rad into [0, 2π).
func NewHeading(rad float64) Heading {
	r := math.Mod(rad, 2*math.Pi)
	if r < 0 {
		r += 2 * math.Pi
	}
	return Heading(r)
}

// HeadingFromDeg converts compass degrees to a Heading.
func HeadingFromDeg(deg float64) Heading {
	return NewHeading(deg * math.Pi / 180)
}

// Deg returns the heading in compass degrees, in [0, 360).
func (h Heading) Deg() float64 { return float64(h) * 180 / math.Pi }

// Vec returns the unit ground-plane direction vector of h.
func (h Heading) Vec() Vec2 {
	s, c := math.Sincos(float64(h))
	return Vec2{X: s, Y: c}
}

// HeadingOf returns the compass heading of direction v. The zero vector maps
// to North.
func HeadingOf(v Vec2) Heading {
	if v.X == 0 && v.Y == 0 {
		return North
	}
	return NewHeading(math.Atan2(v.X, v.Y))
}

// Diff returns the signed smallest rotation from h to g, in (-π, π].
func (h Heading) Diff(g Heading) float64 {
	d := math.Mod(float64(g)-float64(h), 2*math.Pi)
	if d > math.Pi {
		d -= 2 * math.Pi
	}
	if d <= -math.Pi {
		d += 2 * math.Pi
	}
	return d
}

// AbsDiff returns the unsigned smallest angle between h and g, in [0, π].
func (h Heading) AbsDiff(g Heading) float64 { return math.Abs(h.Diff(g)) }

// Add returns h rotated clockwise by rad, renormalised.
func (h Heading) Add(rad float64) Heading { return NewHeading(float64(h) + rad) }

// String implements fmt.Stringer.
func (h Heading) String() string { return fmt.Sprintf("%.1f°", h.Deg()) }

// Deg2Rad converts degrees to radians.
func Deg2Rad(d float64) float64 { return d * math.Pi / 180 }

// Rad2Deg converts radians to degrees.
func Rad2Deg(r float64) float64 { return r * 180 / math.Pi }

// Clamp limits v to [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
