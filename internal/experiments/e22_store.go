package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hdc/internal/sax"
	"hdc/internal/sax/store"
	"hdc/internal/telemetry"
	"hdc/internal/timeseries"
)

// e22Sizes are the dictionary sizes E22 measures. The full suite (run via
// cmd/experiments) goes to a million entries — the regime the segmented
// store exists for; under `go test` the tail is trimmed so the suite stays
// inside the tier-1 budget.
func e22Sizes() []int {
	if testing.Testing() {
		return []int{1_000, 20_000}
	}
	return []int{1_000, 100_000, 1_000_000}
}

// E22Store measures the segmented on-disk sign store (internal/sax/store)
// against the in-memory database: mapped-segment lookup latency and the
// cascade's prune rate (candidates rejected by the mapped lower bounds
// without an exact evaluation) as the dictionary grows to a million entries,
// steady-state lookup allocations, and what the format buys at start-up —
// opening (mmap + header validation) versus re-parsing the v1 JSON artefact.
func E22Store() (string, error) {
	const seriesLen = 128
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
	enc, err := sax.NewEncoder(16, 6)
	if err != nil {
		return "", err
	}

	root, err := os.MkdirTemp("", "hdc-e22-")
	if err != nil {
		return "", err
	}
	defer os.RemoveAll(root)

	sizes := e22Sizes()
	tab := telemetry.NewTable("entries", "memory µs/lookup", "store µs/lookup",
		"store/mem", "pruned before exact", "spec-pruned", "allocs/op", "open ms", "disk MB")
	var openVsParse string

	for _, size := range sizes {
		queries := 12
		if size >= 1_000_000 {
			queries = 4
		}

		// One source of entries feeds both backends so the comparison is
		// entry-for-entry. The in-memory database is only built where it
		// plausibly fits a drone (≤100k entries).
		buildMem := size <= 100_000
		var db *sax.Database
		if buildMem {
			if db, err = sax.NewDatabase(enc, seriesLen); err != nil {
				return "", err
			}
		}
		dir := filepath.Join(root, fmt.Sprintf("store-%d", size))
		bl, err := store.NewBuilder(dir, enc, seriesLen, store.BuilderOptions{})
		if err != nil {
			return "", err
		}
		nLabels := size/3 + 1
		var exemplar timeseries.Series
		for i := 0; i < size; i++ {
			s := shape()
			if i == size/2 {
				exemplar = s
			}
			label := fmt.Sprintf("sign-%04d", i%nLabels)
			if err := bl.AddSeries(label, s); err != nil {
				return "", err
			}
			if buildMem {
				if err := db.Add(label, s); err != nil {
					return "", err
				}
			}
		}
		if err := bl.Commit(); err != nil {
			return "", err
		}

		st, err := store.Open(dir, store.Options{})
		if err != nil {
			return "", err
		}

		// Query mix: perturbed rotations of a stored entry plus fresh shapes.
		var zs []timeseries.Series
		var words []sax.Word
		for qi := 0; qi < queries; qi++ {
			q := shape()
			if qi%2 == 0 {
				q = exemplar.Rotate(rng.Intn(seriesLen)).Clone()
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

		memLookup := time.Duration(0)
		if buildMem {
			sc := sax.NewLookupScratch()
			start := time.Now()
			for qi := range zs {
				if _, err := db.LookupZWith(sc, zs[qi], words[qi], math.Inf(1)); err != nil {
					return "", err
				}
			}
			memLookup = time.Since(start)
		}

		sc := sax.NewLookupScratch()
		var agg sax.LookupStats
		start := time.Now()
		for qi := range zs {
			if _, err := st.LookupZWith(sc, zs[qi], words[qi], math.Inf(1)); err != nil {
				return "", err
			}
			stt := sc.Stats()
			agg.HistPruned += stt.HistPruned
			agg.WordPruned += stt.WordPruned
			agg.SpecPruned += stt.SpecPruned
			agg.ExactEvals += stt.ExactEvals
		}
		stLookup := time.Since(start)

		// Steady-state allocation count of the mapped lookup (the zero the
		// store's benchmarks gate on).
		allocs := testing.AllocsPerRun(5, func() {
			_, _ = st.LookupZWith(sc, zs[0], words[0], math.Inf(1))
		})

		// Cold open: close, drop, re-open. At the JSON-comparison size also
		// time the v1 parse of the same dictionary.
		if err := st.Close(); err != nil {
			return "", err
		}
		start = time.Now()
		st, err = store.Open(dir, store.Options{})
		if err != nil {
			return "", err
		}
		openTime := time.Since(start)

		if buildMem && size >= 20_000 {
			jsonPath := filepath.Join(root, fmt.Sprintf("dict-%d.json", size))
			f, err := os.Create(jsonPath)
			if err != nil {
				return "", err
			}
			if err := db.Save(f); err != nil {
				f.Close()
				return "", err
			}
			f.Close()
			start = time.Now()
			rf, err := os.Open(jsonPath)
			if err != nil {
				return "", err
			}
			if _, err := sax.Load(rf); err != nil {
				rf.Close()
				return "", err
			}
			rf.Close()
			parse := time.Since(start)
			fi, _ := os.Stat(jsonPath)
			openVsParse = fmt.Sprintf(
				"At %d entries a restart costs %.1f ms against the mapped store vs\n%.0f ms re-parsing the %.0f MB v1 JSON artefact — **%.0f× faster**\n(and the map is shared, not heap-resident).\n",
				size, float64(openTime.Microseconds())/1e3,
				float64(parse.Milliseconds()), float64(fi.Size())/1e6,
				float64(parse)/float64(openTime))
		}

		stats := st.Stats()
		ratio := "—"
		memUS := "—"
		if buildMem {
			ratio = fmt.Sprintf("%.2f×", float64(stLookup)/float64(memLookup))
			memUS = fmt.Sprintf("%.0f", float64(memLookup.Microseconds())/float64(queries))
		}
		tab.AddRow(
			fmt.Sprintf("%d", size),
			memUS,
			fmt.Sprintf("%.0f", float64(stLookup.Microseconds())/float64(queries)),
			ratio,
			fmt.Sprintf("%.2f%%", 100*(1-float64(agg.ExactEvals)/float64(uint64(queries)*uint64(size)))),
			fmt.Sprintf("%.2f%%", 100*float64(agg.SpecPruned)/float64(uint64(queries)*uint64(size))),
			fmt.Sprintf("%.0f", allocs),
			fmt.Sprintf("%.1f", float64(openTime.Microseconds())/1e3),
			fmt.Sprintf("%.0f", float64(stats.DiskBytes)/1e6),
		)
		if err := st.Close(); err != nil {
			return "", err
		}
		if err := os.RemoveAll(dir); err != nil {
			return "", err
		}
	}

	var sb strings.Builder
	sb.WriteString("Paper baseline: the §IV prototype re-built its \"database of strings\"\n")
	sb.WriteString("in memory at start-up — fine for three words, untenable for the\n")
	sb.WriteString("fleet-scale dictionaries E18 motivates. The segmented store keeps the\n")
	sb.WriteString("dictionary in immutable mmap-able segment files (fixed-width columns:\n")
	sb.WriteString("SAX words, z-normalised series, and a precomputed symbol-histogram\n")
	sb.WriteString("prune block, so the cascade's stage 0 runs straight over mapped\n")
	sb.WriteString("memory), appends through a checksummed WAL, and folds the tail into\n")
	sb.WriteString("sealed segments in the background. Lookup results are byte-identical\n")
	sb.WriteString("to the in-memory database (enforced by randomized equivalence tests).\n\n")
	sb.WriteString(tab.Markdown())
	sb.WriteString("\npruned before exact is the fraction of the dictionary rejected by the\n")
	sb.WriteString("lower bounds (stage-0 mapped histogram, stage-1 MINDIST or stage-2\n")
	sb.WriteString("spectral bound; spec-pruned is stage 2's share) without ever\n")
	sb.WriteString("reaching the exact alignment, measured with no distance cutoff —\n")
	sb.WriteString("the worst case for the cascade. Serving lookups thread the\n")
	sb.WriteString("recognizer's match threshold through as a cutoff and reject wholesale\n")
	sb.WriteString("far earlier. allocs/op is the store lookup's steady state (gated at 0\n")
	sb.WriteString("by BenchmarkStoreLookup100k).\n\n")
	if openVsParse != "" {
		sb.WriteString(openVsParse)
	}
	sb.WriteString("\n`BenchmarkStoreLookup{1k,100k}`, `BenchmarkStoreOpen` and\n")
	sb.WriteString("`BenchmarkStoreAdd` reproduce the hot paths; `signdb -convert`\n")
	sb.WriteString("builds a store from the shipped JSON artefact and `hdcserve -store`\n")
	sb.WriteString("serves from it.\n")
	return sb.String(), nil
}
