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
// cascade's prune rate (candidates rejected by the spectral bound without
// an exact evaluation) as the dictionary grows to a million entries,
// steady-state lookup allocations, and what the format buys at start-up —
// opening (mmap + header validation) versus re-parsing the v1 JSON artefact
// — together with the first lookup after an open, which derives the sealed
// segments' spectra.
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
		"store/mem", "spec-pruned", "allocs/op", "transform cache MB", "open ms", "1st lookup ms", "disk MB")
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

		// One untimed lookup derives the segments' spectra, which the
		// first-lookup column reports separately.
		sc := sax.NewLookupScratch()
		if _, err := st.LookupZWith(sc, zs[0], words[0], math.Inf(1)); err != nil {
			return "", err
		}
		var agg sax.LookupStats
		start := time.Now()
		for qi := range zs {
			if _, err := st.LookupZWith(sc, zs[qi], words[qi], math.Inf(1)); err != nil {
				return "", err
			}
			stt := sc.Stats()
			agg.SpecPruned += stt.SpecPruned
			agg.ExactEvals += stt.ExactEvals
		}
		stLookup := time.Since(start)

		// Steady-state allocation count of the mapped lookup (the zero the
		// store's benchmarks gate on).
		allocs := testing.AllocsPerRun(5, func() {
			_, _ = st.LookupZWith(sc, zs[0], words[0], math.Inf(1))
		})
		// The exact stage's cached transforms, one per entry that reached
		// it during the lookups above.
		cacheBytes := st.Stats().TransformBytes

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
		start = time.Now()
		if _, err := st.LookupZWith(sc, zs[0], words[0], math.Inf(1)); err != nil {
			return "", err
		}
		firstLookup := time.Since(start)

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
			fmt.Sprintf("%.2f%%", 100*float64(agg.SpecPruned)/float64(uint64(queries)*uint64(size))),
			fmt.Sprintf("%.0f", allocs),
			fmt.Sprintf("%.1f", float64(cacheBytes)/1e6),
			fmt.Sprintf("%.1f", float64(openTime.Microseconds())/1e3),
			fmt.Sprintf("%.1f", float64(firstLookup.Microseconds())/1e3),
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
	sb.WriteString("SAX words and z-normalised series, plus a reserved symbol-histogram\n")
	sb.WriteString("block that nothing reads), appends through a checksummed WAL, and\n")
	sb.WriteString("folds the tail into sealed segments in the background. The cascade's\n")
	sb.WriteString("spectral bound reads per-entry |DFT| magnitudes (sixteen) that each\n")
	sb.WriteString("segment derives from its mapped series on its first lookup, so opening\n")
	sb.WriteString("stays a validation scan; its exact stage caches the forward transform\n")
	sb.WriteString("of each entry that reaches it. Lookup results are bit-identical to\n")
	sb.WriteString("the in-memory database and to its linear scan (enforced by\n")
	sb.WriteString("differential tests and a fuzz target).\n\n")
	sb.WriteString(tab.Markdown())
	sb.WriteString("\nspec-pruned is the fraction of the dictionary the spectral bound\n")
	sb.WriteString("rejected without an exact alignment, measured with no distance\n")
	sb.WriteString("cutoff — the worst case for the cascade; every other entry was\n")
	sb.WriteString("aligned exactly. Serving lookups thread the recognizer's match\n")
	sb.WriteString("threshold through as a cutoff and reject wholesale far earlier.\n")
	sb.WriteString("allocs/op is the store lookup's steady state (gated at 0 by\n")
	sb.WriteString("BenchmarkStoreLookup100k). transform cache MB is the memory of the\n")
	sb.WriteString("cached transforms after the timed lookups: 1 KB for each entry that\n")
	sb.WriteString("reached the exact stage, none for the rest. 1st lookup ms is the\n")
	sb.WriteString("first lookup after the cold open, which derives every sealed\n")
	sb.WriteString("segment's spectra and transforms its survivors afresh; store\n")
	sb.WriteString("µs/lookup excludes it.\n\n")
	if openVsParse != "" {
		sb.WriteString(openVsParse)
	}
	sb.WriteString("\n`BenchmarkStoreLookup{1k,100k}`, `BenchmarkStoreOpen` and\n")
	sb.WriteString("`BenchmarkStoreAdd` reproduce the hot paths; `signdb -convert`\n")
	sb.WriteString("builds a store from the shipped JSON artefact and `hdcserve -store`\n")
	sb.WriteString("serves from it.\n")
	return sb.String(), nil
}
