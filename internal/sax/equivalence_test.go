package sax

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"hdc/internal/timeseries"
)

// equivalence_test.go property-tests the indexed cascade against the
// retained linear-scan reference: over randomized dictionaries and rotated/
// mirrored/noisy queries, LookupZWith must return bit-identical Match
// results to LookupZLinear — same label, same word, same word distance, same
// exact distance bits, same shift, same mirror flag.

// randSmoothSeries draws a random band-limited series: a few random
// harmonics plus noise, the closed-contour shape family the database indexes.
func randSmoothSeries(rng *rand.Rand, n int) timeseries.Series {
	a1, a2, a3 := rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()
	p1, p2, p3 := rng.Float64()*2*math.Pi, rng.Float64()*2*math.Pi, rng.Float64()*2*math.Pi
	s := make(timeseries.Series, n)
	for i := range s {
		t := 2 * math.Pi * float64(i) / float64(n)
		s[i] = 1 + 0.6*a1*math.Cos(t+p1) + 0.4*a2*math.Cos(2*t+p2) + 0.3*a3*math.Cos(3*t+p3) +
			0.05*rng.NormFloat64()
	}
	return s
}

// buildRandomDB fills a database with nEntries random shapes spread over
// nLabels labels (duplicate labels = multiple exemplars).
func buildRandomDB(t testing.TB, rng *rand.Rand, nEntries, nLabels, n int) *Database {
	t.Helper()
	enc, err := NewEncoder(16, 6)
	if err != nil {
		t.Fatal(err)
	}
	db, err := NewDatabase(enc, n)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nEntries; i++ {
		label := fmt.Sprintf("sign-%02d", i%nLabels)
		if err := db.Add(label, randSmoothSeries(rng, n)); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// queryVariants derives the query set from a base series: as-is, rotated,
// mirrored, mirrored+rotated, noisy-rotated, and a fresh random shape.
func queryVariants(rng *rand.Rand, base timeseries.Series, n int) []timeseries.Series {
	rot := rng.Intn(n)
	noisy := base.Rotate(rot).Clone()
	for i := range noisy {
		noisy[i] += 0.1 * rng.NormFloat64()
	}
	return []timeseries.Series{
		base,
		base.Rotate(rot),
		base.Reverse(),
		base.Reverse().Rotate(rot),
		noisy,
		randSmoothSeries(rng, n),
	}
}

func TestCascadeMatchesLinearReference(t *testing.T) {
	rng := rand.New(rand.NewSource(211))
	const n = 128
	sizes := []int{1, 3, 17, 120, 300}
	for _, size := range sizes {
		db := buildRandomDB(t, rng, size, size/3+1, n)
		// Exercise both window settings: full rotation search and bounded.
		for _, frac := range []float64{0, 0.15} {
			db.SetShiftWindowFrac(frac)
			sc := NewLookupScratch()
			for trial := 0; trial < 12; trial++ {
				base := randSmoothSeries(rng, n)
				if trial%2 == 0 {
					// Half the queries are perturbations of a stored entry.
					e := db.snapshot()[rng.Intn(db.Len())]
					base = e.Series
				}
				for qi, q := range queryVariants(rng, base, n) {
					rs, err := q.ResampleLinear(n)
					if err != nil {
						t.Fatal(err)
					}
					z := rs.ZNormalize()
					qw, err := db.Encoder().Encode(z)
					if err != nil {
						t.Fatal(err)
					}
					for _, threshold := range []float64{math.Inf(1), 4.0, 0.01} {
						got, gotErr := db.LookupZWith(sc, z, qw, threshold)
						want, wantErr := db.LookupZLinear(z, qw, threshold)
						if !errors.Is(gotErr, wantErr) && !errors.Is(wantErr, gotErr) {
							t.Fatalf("size=%d frac=%v query=%d thr=%v: err %v != %v", size, frac, qi, threshold, gotErr, wantErr)
						}
						if got != want {
							t.Fatalf("size=%d frac=%v query=%d thr=%v:\n cascade %+v\n linear  %+v\n stats %+v",
								size, frac, qi, threshold, got, want, sc.Stats())
						}
					}
				}
			}
		}
	}
}

// TestLookupKMatchesBruteForce checks the top-k results (order, distances,
// alignment diagnostics) against a brute-force per-entry evaluation sorted
// by (distance, insertion order).
func TestLookupKMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(223))
	const n = 128
	db := buildRandomDB(t, rng, 40, 11, n)
	sc := NewLookupScratch()

	for trial := 0; trial < 15; trial++ {
		q := randSmoothSeries(rng, n)
		z := q.ZNormalize()
		qw, err := db.Encoder().Encode(z)
		if err != nil {
			t.Fatal(err)
		}

		all, err := LinearLookupKZ(db, z, qw, len(db.snapshot()))
		if err != nil {
			t.Fatal(err)
		}

		for _, k := range []int{1, 2, 5, 40, 60} {
			got, err := db.LookupKZWith(sc, z, qw, k, nil)
			if err != nil {
				t.Fatal(err)
			}
			wantLen := k
			if wantLen > len(all) {
				wantLen = len(all)
			}
			if len(got) != wantLen {
				t.Fatalf("k=%d: got %d matches, want %d", k, len(got), wantLen)
			}
			for i := range got {
				if got[i] != all[i] {
					t.Fatalf("k=%d rank %d:\n got  %+v\n want %+v", k, i, got[i], all[i])
				}
			}
		}
	}
}

// TestLookupKMargin sanity-checks the confidence margin helper.
func TestLookupKMargin(t *testing.T) {
	if abs, rel := Margin(nil); abs != 0 || rel != 0 {
		t.Fatalf("empty margin = (%v, %v)", abs, rel)
	}
	one := []Match{{Dist: 2}}
	if abs, rel := Margin(one); !math.IsInf(abs, 1) || rel != 1 {
		t.Fatalf("single margin = (%v, %v)", abs, rel)
	}
	two := []Match{{Dist: 1}, {Dist: 4}}
	if abs, rel := Margin(two); abs != 3 || rel != 0.75 {
		t.Fatalf("margin = (%v, %v)", abs, rel)
	}
}
