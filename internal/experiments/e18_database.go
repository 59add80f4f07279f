package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"

	"hdc/internal/sax"
	"hdc/internal/telemetry"
	"hdc/internal/timeseries"
)

// E18Database measures the indexed sign database against the
// retained linear-scan reference at dictionary sizes 10/100/1000 — the
// fleet-scale regime (hundreds of per-site exemplars) the lookup cascade is
// built for. Reported per size: mean lookup latency of the linear scan and
// of the two-stage cascade (spectral |DFT| bound → exact alignment with
// cutoff), the speedup, and how many candidates the bound rejected.
func E18Database() (string, error) {
	const (
		seriesLen = 128
		queries   = 12
	)
	rng := rand.New(rand.NewSource(42))
	shape := func() timeseries.Series {
		a1, a2, a3 := rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()
		p1, p2, p3 := rng.Float64()*2*math.Pi, rng.Float64()*2*math.Pi, rng.Float64()*2*math.Pi
		s := make(timeseries.Series, seriesLen)
		for i := range s {
			t := 2 * math.Pi * float64(i) / seriesLen
			s[i] = 1 + 0.6*a1*math.Cos(t+p1) + 0.4*a2*math.Cos(2*t+p2) +
				0.3*a3*math.Cos(3*t+p3) + 0.05*rng.NormFloat64()
		}
		return s
	}

	tab := telemetry.NewTable("entries", "linear µs/lookup", "cascade µs/lookup",
		"speedup", "spec-pruned", "exact evals")
	for _, size := range []int{10, 100, 1000} {
		enc, err := sax.NewEncoder(16, 6)
		if err != nil {
			return "", err
		}
		db, err := sax.NewDatabase(enc, seriesLen)
		if err != nil {
			return "", err
		}
		for i := 0; i < size; i++ {
			if err := db.Add(fmt.Sprintf("sign-%03d", i%(size/3+1)), shape()); err != nil {
				return "", err
			}
		}

		// Query mix: perturbed rotations of stored entries plus fresh shapes.
		var zs []timeseries.Series
		var words []sax.Word
		for qi := 0; qi < queries; qi++ {
			q := shape()
			if qi%2 == 0 {
				q = db.Entries()[rng.Intn(db.Len())].Series.Rotate(rng.Intn(seriesLen)).Clone()
				for i := range q {
					q[i] += 0.1 * rng.NormFloat64()
				}
			}
			z := q.ZNormalize()
			w, err := enc.Encode(z)
			if err != nil {
				return "", err
			}
			zs = append(zs, z)
			words = append(words, w)
		}

		start := time.Now()
		for qi := range zs {
			if _, err := db.LookupZLinear(zs[qi], words[qi], math.Inf(1)); err != nil {
				return "", err
			}
		}
		linear := time.Since(start)

		sc := sax.NewLookupScratch()
		var agg sax.LookupStats
		start = time.Now()
		for qi := range zs {
			if _, err := db.LookupZWith(sc, zs[qi], words[qi], math.Inf(1)); err != nil {
				return "", err
			}
			st := sc.Stats()
			agg.SpecPruned += st.SpecPruned
			agg.ExactEvals += st.ExactEvals
		}
		cascade := time.Since(start)

		tab.AddRow(
			fmt.Sprintf("%d", size),
			fmt.Sprintf("%.0f", float64(linear.Microseconds())/queries),
			fmt.Sprintf("%.0f", float64(cascade.Microseconds())/queries),
			fmt.Sprintf("%.1f×", float64(linear)/float64(cascade)),
			fmt.Sprintf("%.0f", float64(agg.SpecPruned)/queries),
			fmt.Sprintf("%.0f", float64(agg.ExactEvals)/queries),
		)
	}

	var sb strings.Builder
	sb.WriteString("Paper baseline: the §IV \"database of strings\" held three words; a\n")
	sb.WriteString("fleet deployment holds hundreds (per-site signs, several exemplars\n")
	sb.WriteString("each).\n")
	sb.WriteString("Entries sit in one append-only slice in insertion order (a lookup\n")
	sb.WriteString("copies the slice header under a read lock and scans lock-free, so\n")
	sb.WriteString("pool workers never serialise) and lookup runs a best-first\n")
	sb.WriteString("two-stage cascade: a spectral bound (sixteen |DFT| magnitudes per\n")
	sb.WriteString("entry, computed at insert; rotation/mirror invariant, so below every\n")
	sb.WriteString("alignment at every shift by Parseval) orders and prunes the\n")
	sb.WriteString("candidates, then exact alignment (an FFT cross-correlation picks\n")
	sb.WriteString("the shifts, the direct sum confirms them) runs on the survivors,\n")
	sb.WriteString("both cut off against the best distance so far. Each survivor's\n")
	sb.WriteString("forward transform is cached on its first exact alignment, so later\n")
	sb.WriteString("lookups pay one product and one inverse FFT for it. Identical Match\n")
	sb.WriteString("results to the linear scan are enforced by differential tests and\n")
	sb.WriteString("a fuzz target over rotated, reflected and perturbed copies.\n\n")
	sb.WriteString(tab.Markdown())
	sb.WriteString("\nColumns spec-pruned and exact evals are per query (means); they sum\n")
	sb.WriteString("to the entry count.\n")
	sb.WriteString("`BenchmarkDatabaseLookup{10,100,1000}` reproduces the cascade\n")
	sb.WriteString("timings with 0 allocs/op in steady state;\n")
	sb.WriteString("`BenchmarkDatabaseLookupLinear*` the baseline, and\n")
	sb.WriteString("`BenchmarkLookupParallel` the scaling under concurrent\n")
	sb.WriteString("lookers.\n")
	return sb.String(), nil
}
