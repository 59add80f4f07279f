package experiments

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"hdc/internal/core"
	"hdc/internal/flight"
	"hdc/internal/geom"
	"hdc/internal/ledring"
	"hdc/internal/mission"
	"hdc/internal/orchard"
	"hdc/internal/telemetry"
)

// E11LEDAblation quantifies the §II display design: heading readability vs
// LED count, and the verdict on the vertical take-off/landing array the
// paper's user feedback rejected.
func E11LEDAblation() (string, error) {
	var sb strings.Builder
	sb.WriteString("Paper (§II): a 10-LED ring signals the flight direction; the vertical\n")
	sb.WriteString("take-off/landing array confused users and is to be discarded.\n\n")

	tb := telemetry.NewTable("LED count", "mean decode error", "worst-case (quantisation)")
	for _, n := range []int{4, 6, 8, 10, 16, 24, 36} {
		ring, err := ledring.New(ledring.Options{LEDCount: n})
		if err != nil {
			return "", err
		}
		var sum float64
		var cnt int
		for deg := 0.0; deg < 360; deg += 2 {
			h := geom.HeadingFromDeg(deg)
			ring.SetNavigation(h)
			dec, err := ledring.DecodeHeading(ring.LEDs())
			if err != nil {
				return "", err
			}
			sum += geom.Rad2Deg(dec.AbsDiff(h))
			cnt++
		}
		tb.AddRow(
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%.1f°", sum/float64(cnt)),
			fmt.Sprintf("%.1f°", ledring.HeadingQuantizationErrorDeg(n)),
		)
	}
	sb.WriteString(tb.Markdown())
	sb.WriteString("\nThe paper's 10-LED ring reads to ≈18° worst case — enough to tell the\n")
	sb.WriteString("eight cardinal/intercardinal directions apart, matching the FAA-style\n")
	sb.WriteString("requirement without the cost of a denser ring.\n\n")

	sb.WriteString("### Vertical array (deprecated per user feedback)\n\n")
	ring, err := ledring.New(ledring.Options{VerticalArray: 5})
	if err != nil {
		return "", err
	}
	if err := ring.StartVertical(ledring.VerticalTakeOff); err != nil {
		return "", err
	}
	takeoff := verticalTrace(ring, 5)
	if err := ring.StartVertical(ledring.VerticalLanding); err != nil {
		return "", err
	}
	landing := verticalTrace(ring, 5)
	sb.WriteString("Take-off animation (bottom→top), one column per tick:\n\n```\n" + takeoff + "```\n\n")
	sb.WriteString("Landing animation (top→bottom):\n\n```\n" + landing + "```\n\n")
	sb.WriteString("The two animations differ only in direction of travel — exactly the\n")
	sb.WriteString("discriminability problem the paper's users reported; the array ships\n")
	sb.WriteString("disabled by default and the RGB-signal alternative is future work.\n")

	sb.WriteString("\n### Power vs illumination distance (§II open issue)\n\n")
	sb.WriteString("\"Power requirements with respect to illumination distance is an issue\n")
	sb.WriteString("that needs further consideration.\" Ten-LED ring in full daylight\n")
	sb.WriteString("(10 klx), hover draw 180 W, 25 min endurance:\n\n")
	tb3 := telemetry.NewTable("legibility range", "per-LED intensity", "ring power", "endurance cost")
	for _, rangeM := range []float64{10, 30, 100, 300} {
		cd, err := ledring.RequiredIntensityCd(rangeM, 10000, 1)
		if err != nil {
			return "", err
		}
		w, err := ledring.RingPowerW(10, ledring.PhotometricParams{IntensityCd: cd, AmbientLux: 10000})
		if err != nil {
			return "", err
		}
		lost, err := ledring.EnduranceImpact(w, 180, 25)
		if err != nil {
			return "", err
		}
		tb3.AddRow(
			fmt.Sprintf("%.0f m", rangeM),
			fmt.Sprintf("%.2f cd", cd),
			fmt.Sprintf("%.2f W", w),
			fmt.Sprintf("%.2f min", lost),
		)
	}
	sb.WriteString(tb3.Markdown())
	sb.WriteString("\nLegibility at the orchard's working distances is essentially free;\n")
	sb.WriteString("the inverse-square law makes long-range signalling the expensive case —\n")
	sb.WriteString("which is where the paper's suggested \"separate high luminosity LEDs\"\n")
	sb.WriteString("(collimated beams) pay off.\n")
	return sb.String(), nil
}

func verticalTrace(ring *ledring.Ring, ticks int) string {
	n := len(ring.Vertical())
	rows := make([][]byte, n)
	for i := range rows {
		rows[i] = make([]byte, ticks)
		for j := range rows[i] {
			rows[i][j] = '.'
		}
	}
	for tick := 0; tick < ticks; tick++ {
		for i, on := range ring.Vertical() {
			if on {
				rows[n-1-i][tick] = '#' // row 0 = top
			}
		}
		ring.TickVertical()
	}
	var sb strings.Builder
	for _, r := range rows {
		sb.Write(r)
		sb.WriteByte('\n')
	}
	return sb.String()
}

// E12Legibility reproduces the §III "unmistakable patterns" claim: the
// observer-side classifier's confusion matrix over all seven patterns under
// calm air and gusty wind.
func E12Legibility() (string, error) {
	var sb strings.Builder
	sb.WriteString("Paper (§III): the communicative flight patterns are \"unmistakable\"\n")
	sb.WriteString("— an observer can read them from gross motion alone. Confusion matrix\n")
	sb.WriteString("of the trajectory classifier, 10 trials per pattern:\n\n")

	for _, windy := range []bool{false, true} {
		name := "calm air"
		if windy {
			name = "wind: 0.4 m/s mean + 0.4 m/s gusts"
		}
		sb.WriteString("### " + name + "\n\n")
		patterns := flight.Patterns()
		counts := make(map[flight.Pattern]map[string]int)
		for pi, p := range patterns {
			counts[p] = map[string]int{}
			for trial := 0; trial < 10; trial++ {
				// Each (pattern, trial) draws its gusts from its own seed,
				// derived from 2024, so a change to one pattern's flight
				// leaves every other row's gusts as they were.
				rng := rand.New(rand.NewSource(2024 + int64(trial*len(patterns)+pi)))
				d, err := flight.New(flight.DefaultParams(), geom.V3(0, 0, 0))
				if err != nil {
					return "", err
				}
				e := flight.NewExecutor(d)
				if p != flight.PatternTakeOff {
					if _, err := e.Fly(flight.PatternTakeOff, geom.Vec3{}); err != nil {
						return "", err
					}
				}
				if windy {
					w, err := flight.NewWind(geom.V2(0.3, 0.25), 0.4, rng)
					if err != nil {
						return "", err
					}
					d.Wind = w
				}
				tr, err := e.Fly(p, geom.V3(6, 2, 0))
				if err != nil {
					counts[p]["failed"]++
					continue
				}
				got, _, err := flight.Classify(tr)
				if err != nil {
					counts[p]["none"]++
					continue
				}
				counts[p][got.String()]++
			}
		}
		header := []string{"flown \\ read"}
		for _, p := range patterns {
			header = append(header, p.String())
		}
		header = append(header, "none/failed")
		tb := telemetry.NewTable(header...)
		for _, p := range patterns {
			row := []string{p.String()}
			for _, q := range patterns {
				row = append(row, fmt.Sprintf("%d", counts[p][q.String()]))
			}
			row = append(row, fmt.Sprintf("%d", counts[p]["none"]+counts[p]["failed"]))
			tb.AddRow(row...)
		}
		sb.WriteString(tb.Markdown())
		sb.WriteString("\n")
	}
	sb.WriteString("Diagonal dominance in calm air supports the \"unmistakable\" design\n")
	sb.WriteString("goal; gusts introduce bounded confusion, concentrated in patterns whose\n")
	sb.WriteString("motion amplitude is closest to the gust displacement.\n")
	return sb.String(), nil
}

// E13Mission runs the paper's §I use case end to end: trap monitoring over
// a populated orchard with negotiated access, across several seeds.
func E13Mission() (string, error) {
	var sb strings.Builder
	sb.WriteString("Paper (§I): drones collect fly-trap data in the presence of humans who\n")
	sb.WriteString("may block access; access must be negotiated. Full-stack mission runs\n")
	sb.WriteString("(flight + lights + rendered perception + protocol + orchard):\n\n")

	tb := telemetry.NewTable("seed", "traps read", "skipped", "negotiations", "granted", "denied", "silent", "battery", "sim time")
	for _, seed := range []int64{1, 2, 3} {
		sys, err := core.NewSystem(core.WithSeed(seed), core.WithHome(geom.V3(-6, -6, 0)))
		if err != nil {
			return "", err
		}
		world, err := orchard.Generate(orchard.Config{
			Rows: 4, Cols: 6, TrapEvery: 3, Humans: 3, PestRatePerHour: 30,
		}, rand.New(rand.NewSource(seed)))
		if err != nil {
			return "", err
		}
		world.Step(2 * time.Hour)
		m, err := mission.New(sys, world, mission.Config{})
		if err != nil {
			return "", err
		}
		rep, err := m.Run()
		if err != nil {
			return "", err
		}
		tb.AddRow(
			fmt.Sprintf("%d", seed),
			fmt.Sprintf("%d/%d", rep.TrapsRead, rep.TrapsTotal),
			fmt.Sprintf("%d", rep.TrapsSkipped),
			fmt.Sprintf("%d", rep.Negotiations),
			fmt.Sprintf("%d", rep.Granted),
			fmt.Sprintf("%d", rep.Denied),
			fmt.Sprintf("%d", rep.NoResponse),
			fmt.Sprintf("%.0f%%", rep.BatteryUsed*100),
			rep.SimTime.Truncate(time.Second).String(),
		)
	}
	sb.WriteString(tb.Markdown())
	sb.WriteString("\nEvery blocked trap triggered a Fig 3 negotiation; no entry ever\n")
	sb.WriteString("happened without a recognised Yes (enforced by the protocol engine and\n")
	sb.WriteString("its property tests).\n")
	return sb.String(), nil
}
