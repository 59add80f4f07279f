package sax

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"hdc/internal/timeseries"
)

// synthetic shape signatures: distinguishable periodic profiles emulating
// centroid-distance signatures of different signs.
func shapeSignature(kind string, n int, phase float64, noise float64, rng *rand.Rand) timeseries.Series {
	s := make(timeseries.Series, n)
	for i := range s {
		t := 2*math.Pi*float64(i)/float64(n) + phase
		var v float64
		switch kind {
		case "two-lobe":
			v = 1 + 0.5*math.Cos(2*t)
		case "three-lobe":
			v = 1 + 0.5*math.Cos(3*t)
		case "spike":
			v = 1 + 0.8*math.Exp(-10*math.Pow(math.Mod(t, 2*math.Pi)-math.Pi, 2))
		default:
			v = 1
		}
		if noise > 0 && rng != nil {
			v += noise * rng.NormFloat64()
		}
		s[i] = v
	}
	return s
}

func newTestDB(t *testing.T) *Database {
	t.Helper()
	enc, err := NewEncoder(16, 6)
	if err != nil {
		t.Fatal(err)
	}
	db, err := NewDatabase(enc, 128)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{"two-lobe", "three-lobe", "spike"} {
		if err := db.Add(kind, shapeSignature(kind, 128, 0, 0, nil)); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func TestDatabaseLookupExact(t *testing.T) {
	db := newTestDB(t)
	for _, kind := range []string{"two-lobe", "three-lobe", "spike"} {
		m, err := db.Lookup(shapeSignature(kind, 128, 0, 0, nil), 1.0)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if m.Label != kind {
			t.Fatalf("lookup(%s) = %s", kind, m.Label)
		}
		if !almostEq(m.Dist, 0, 1e-6) {
			t.Fatalf("%s: self distance %v", kind, m.Dist)
		}
	}
}

func TestDatabaseLookupRotationInvariant(t *testing.T) {
	db := newTestDB(t)
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 20; trial++ {
		phase := rng.Float64() * 2 * math.Pi
		kind := []string{"two-lobe", "three-lobe", "spike"}[trial%3]
		q := shapeSignature(kind, 128, phase, 0, nil)
		m, err := db.Lookup(q, 2.0)
		if err != nil {
			t.Fatalf("%s phase %.2f: %v", kind, phase, err)
		}
		if m.Label != kind {
			t.Fatalf("%s phase %.2f matched %s", kind, phase, m.Label)
		}
	}
}

func TestDatabaseLookupNoisy(t *testing.T) {
	db := newTestDB(t)
	rng := rand.New(rand.NewSource(37))
	correct := 0
	const trials = 30
	for trial := 0; trial < trials; trial++ {
		kind := []string{"two-lobe", "three-lobe", "spike"}[trial%3]
		q := shapeSignature(kind, 128, rng.Float64()*2*math.Pi, 0.05, rng)
		m, err := db.Lookup(q, 5.0)
		if err == nil && m.Label == kind {
			correct++
		}
	}
	if correct < trials*9/10 {
		t.Fatalf("noisy accuracy %d/%d below 90%%", correct, trials)
	}
}

func TestDatabaseLookupThreshold(t *testing.T) {
	db := newTestDB(t)
	// A pure random signature should be far from everything under a tight
	// threshold.
	rng := rand.New(rand.NewSource(41))
	q := randSeries(rng, 128)
	m, err := db.Lookup(q, 0.01)
	if !errors.Is(err, ErrNoMatch) {
		t.Fatalf("expected ErrNoMatch, got %v (match %+v)", err, m)
	}
	// Diagnostics still carried in the rejected match.
	if m.Label == "" {
		t.Fatal("rejected lookup should still report nearest candidate")
	}
}

func TestDatabaseLookupEmpty(t *testing.T) {
	enc, _ := NewEncoder(8, 4)
	db, _ := NewDatabase(enc, 64)
	if _, err := db.Lookup(timeseries.Series{1, 2, 3}, 1); !errors.Is(err, ErrNoMatch) {
		t.Fatalf("empty db lookup: %v", err)
	}
	if _, err := db.Lookup(nil, 1); err == nil {
		t.Fatal("nil query should fail")
	}
}

func TestDatabaseAddValidation(t *testing.T) {
	enc, _ := NewEncoder(8, 4)
	db, _ := NewDatabase(enc, 64)
	if err := db.Add("", timeseries.Series{1, 2}); err == nil {
		t.Error("empty label should fail")
	}
	if err := db.Add("x", nil); err == nil {
		t.Error("nil series should fail")
	}
	if db.Len() != 0 {
		t.Error("failed adds must not register entries")
	}
}

func TestNewDatabaseValidation(t *testing.T) {
	enc, _ := NewEncoder(8, 4)
	if _, err := NewDatabase(nil, 64); err == nil {
		t.Error("nil encoder should fail")
	}
	if _, err := NewDatabase(enc, 4); err == nil {
		t.Error("series length below word length should fail")
	}
}

func TestDatabaseEntriesSortedCopy(t *testing.T) {
	db := newTestDB(t)
	e1 := db.Entries()
	if len(e1) != 3 {
		t.Fatalf("entries = %d", len(e1))
	}
	for i := 1; i < len(e1); i++ {
		if e1[i].Label < e1[i-1].Label {
			t.Fatal("entries not sorted")
		}
	}
	// Mutating the copy must not corrupt the database.
	e1[0].Label = "hacked"
	e2 := db.Entries()
	if e2[0].Label == "hacked" {
		t.Fatal("Entries leaked internal state")
	}
}

func TestPairwiseMatrices(t *testing.T) {
	db := newTestDB(t)
	labels, md, err := db.PairwiseMinDist()
	if err != nil {
		t.Fatal(err)
	}
	if len(labels) != 3 || len(md) != 3 {
		t.Fatalf("matrix shape wrong")
	}
	_, ed, err := db.PairwiseExactDist()
	if err != nil {
		t.Fatal(err)
	}
	for i := range md {
		if md[i][i] != 0 || ed[i][i] != 0 {
			t.Fatal("diagonal must be zero")
		}
		for j := range md[i] {
			if md[i][j] != md[j][i] || ed[i][j] != ed[j][i] {
				t.Fatal("matrices must be symmetric")
			}
			// MINDIST lower-bounds the exact distance.
			if i != j && md[i][j] > ed[i][j]+1e-9 {
				t.Fatalf("MINDIST %v exceeds exact %v", md[i][j], ed[i][j])
			}
		}
	}
	// Distinct shapes must be separated (uniqueness, E8 precondition).
	for i := range ed {
		for j := range ed[i] {
			if i != j && ed[i][j] < 1 {
				t.Fatalf("shapes %s and %s too close: %v", labels[i], labels[j], ed[i][j])
			}
		}
	}
}

func TestDatabaseConcurrentAccess(t *testing.T) {
	db := newTestDB(t)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			_ = db.Add("two-lobe", shapeSignature("two-lobe", 128, float64(i), 0, nil))
		}
	}()
	for i := 0; i < 50; i++ {
		if _, err := db.Lookup(shapeSignature("spike", 128, 0, 0, nil), 1.0); err != nil {
			t.Fatal(err)
		}
	}
	<-done
}

func TestTuneGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	kinds := []string{"two-lobe", "three-lobe", "spike"}
	var refs, eval []LabeledSeries
	for _, k := range kinds {
		refs = append(refs, LabeledSeries{Label: k, Series: shapeSignature(k, 128, 0, 0, nil)})
		for i := 0; i < 5; i++ {
			eval = append(eval, LabeledSeries{
				Label:  k,
				Series: shapeSignature(k, 128, rng.Float64()*2*math.Pi, 0.03, rng),
			})
		}
	}
	res, err := TuneGrid(refs, eval, []int{8, 16}, []int{4, 6}, 128)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 {
		t.Fatalf("grid size %d, want 4", len(res))
	}
	// Sorted by accuracy desc.
	for i := 1; i < len(res); i++ {
		if res[i].Accuracy > res[i-1].Accuracy+1e-12 {
			t.Fatal("results not sorted by accuracy")
		}
	}
	if res[0].Accuracy < 0.9 {
		t.Fatalf("best grid cell accuracy %v < 0.9", res[0].Accuracy)
	}
}

func TestTuneGridValidation(t *testing.T) {
	if _, err := TuneGrid(nil, nil, []int{4}, []int{4}, 64); err == nil {
		t.Fatal("empty sets should fail")
	}
}

// TestLookupKZWithZeroAllocs pins the cascade's steady state — all four
// stages, the aligner included — at zero allocations per lookup.
func TestLookupKZWithZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	db := buildRandomDB(t, rng, 200, 20, 128)
	z := randSmoothSeries(rng, 128).ZNormalize()
	qw, err := db.Encoder().Encode(z)
	if err != nil {
		t.Fatal(err)
	}
	sc := NewLookupScratch()
	dst := make([]Match, 0, 4)
	allocs := testing.AllocsPerRun(50, func() {
		if dst, err = db.LookupKZWith(sc, z, qw, 4, dst[:0]); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("LookupKZWith allocates %v per lookup in steady state", allocs)
	}
}
