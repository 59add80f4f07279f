package ledring

import (
	"errors"
	"math"
)

// power.go models the §II open issue the paper flags: "power requirements
// with respect to illumination distance is an issue that needs further
// consideration. There is obvious scope for optimisation by the use of
// separate high luminosity LEDs." The model answers the two questions a
// designer needs: how far is the ring legible under given ambient light,
// and what does that legibility cost in battery.

// PhotometricParams describes one LED and the viewing conditions.
type PhotometricParams struct {
	// IntensityCd is the LED's luminous intensity (candela). Typical
	// indicator LEDs: 0.1–5 cd; high-luminosity signalling LEDs: 10–100 cd.
	IntensityCd float64
	// AmbientLux is the ambient illuminance (overcast day ≈ 1000 lx, full
	// daylight ≈ 10000–25000 lx, dusk ≈ 10 lx).
	AmbientLux float64
	// ContrastThreshold is the minimum point-source illuminance at the eye,
	// as a fraction of a baseline detection threshold that scales with
	// ambient light (default 1: standard detection; >1: conservative).
	ContrastThreshold float64
	// EfficacyLmPerW converts electrical power to luminous flux (default
	// 80 lm/W, a modern coloured LED).
	EfficacyLmPerW float64
	// BeamSr is the emission solid angle (default 2π: a bare wide-angle
	// indicator; collimated signalling LEDs are much smaller).
	BeamSr float64
}

func (p PhotometricParams) withDefaults() (PhotometricParams, error) {
	if p.IntensityCd <= 0 {
		return p, errors.New("ledring: luminous intensity must be positive")
	}
	if p.AmbientLux < 0 {
		return p, errors.New("ledring: negative ambient illuminance")
	}
	if p.ContrastThreshold == 0 {
		p.ContrastThreshold = 1
	}
	if p.EfficacyLmPerW == 0 {
		p.EfficacyLmPerW = 80
	}
	if p.BeamSr == 0 {
		p.BeamSr = 2 * math.Pi
	}
	return p, nil
}

// detectionThresholdLux returns the point-source illuminance (lux at the
// observer's eye) needed to notice an LED against the ambient level —
// Allard's-law-style visual threshold that rises with ambient light. The
// constants approximate published conspicuity data: ~2×10⁻⁷ lx in darkness
// rising roughly with the square root of ambient illuminance.
func detectionThresholdLux(ambientLux float64) float64 {
	const dark = 2e-7
	return dark * (1 + math.Sqrt(ambientLux)*50)
}

// RequiredIntensityCd inverts the inverse-square detection range: the
// luminous intensity one LED needs to stay detectable at rangeM under the
// given ambient light.
func RequiredIntensityCd(rangeM float64, ambientLux, contrastThreshold float64) (float64, error) {
	if rangeM <= 0 {
		return 0, errors.New("ledring: range must be positive")
	}
	if contrastThreshold == 0 {
		contrastThreshold = 1
	}
	return detectionThresholdLux(ambientLux) * contrastThreshold * rangeM * rangeM, nil
}

// RingPowerW returns the electrical power (watts) of running n LEDs at the
// given photometric operating point: intensity × beam solid angle gives
// flux (lumens), divided by efficacy.
func RingPowerW(n int, p PhotometricParams) (float64, error) {
	if n < 1 {
		return 0, errors.New("ledring: LED count must be positive")
	}
	p, err := p.withDefaults()
	if err != nil {
		return 0, err
	}
	fluxLm := p.IntensityCd * p.BeamSr
	return float64(n) * fluxLm / p.EfficacyLmPerW, nil
}

// EnduranceImpact estimates how much hover endurance the ring costs: the
// ring's power as a fraction of the hover draw, times the nominal
// endurance. A designer reads this as "minutes of flight paid for
// legibility at range d".
func EnduranceImpact(ringW, hoverDrawW, enduranceMin float64) (minutesLost float64, err error) {
	if hoverDrawW <= 0 || enduranceMin <= 0 {
		return 0, errors.New("ledring: hover draw and endurance must be positive")
	}
	if ringW < 0 {
		return 0, errors.New("ledring: negative ring power")
	}
	frac := ringW / (hoverDrawW + ringW)
	return enduranceMin * frac, nil
}
