package sax

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"hdc/internal/timeseries"
)

// TestDatabaseConcurrentLookupAdd exercises the database under the
// streaming pipeline's access pattern: many workers issuing Lookup/LookupZ
// while exemplars are registered concurrently. Run with -race; the
// assertions also catch lost entries and torn matches without it.
func TestDatabaseConcurrentLookupAdd(t *testing.T) {
	enc, err := NewEncoder(16, 5)
	if err != nil {
		t.Fatal(err)
	}
	db, err := NewDatabase(enc, 128)
	if err != nil {
		t.Fatal(err)
	}

	mkSeries := func(seed int64) timeseries.Series {
		rng := rand.New(rand.NewSource(seed))
		s := make(timeseries.Series, 128)
		for i := range s {
			s[i] = rng.NormFloat64()
		}
		return s
	}
	// Seed a few entries so lookups always have candidates.
	for i := 0; i < 4; i++ {
		if err := db.Add(fmt.Sprintf("seed-%d", i), mkSeries(int64(i))); err != nil {
			t.Fatal(err)
		}
	}

	const lookupWorkers = 6
	const adders = 2
	const perWorker = 60

	var wg sync.WaitGroup
	for w := 0; w < lookupWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			q := mkSeries(int64(100 + w))
			z := q.ZNormalize()
			qw, err := enc.Encode(z)
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < perWorker; i++ {
				if m, err := db.Lookup(q, 1e9); err != nil {
					t.Errorf("lookup: %v", err)
					return
				} else if m.Label == "" {
					t.Error("lookup returned empty label under huge threshold")
					return
				}
				if _, err := db.LookupZ(z, qw, 1e9); err != nil {
					t.Errorf("lookupZ: %v", err)
					return
				}
			}
		}(w)
	}
	for a := 0; a < adders; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				label := fmt.Sprintf("dyn-%d-%d", a, i)
				if err := db.Add(label, mkSeries(int64(1000+a*perWorker+i))); err != nil {
					t.Errorf("add: %v", err)
					return
				}
			}
		}(a)
	}
	wg.Wait()

	want := 4 + adders*perWorker
	if got := db.Len(); got != want {
		t.Fatalf("entries lost: %d, want %d", got, want)
	}
}

// TestDatabaseConcurrentScratchLookup drives the database the way a
// fleet-scale deployment does: a few hundred entries, per-worker scratches
// issuing LookupZWith/LookupKZWith, and adders appending to the entry slice
// the whole time (growing it past its capacity, so lookups keep scanning
// snapshots whose backing array Add has since replaced). Run with -race.
func TestDatabaseConcurrentScratchLookup(t *testing.T) {
	enc, err := NewEncoder(16, 6)
	if err != nil {
		t.Fatal(err)
	}
	db, err := NewDatabase(enc, 64)
	if err != nil {
		t.Fatal(err)
	}

	mkSeries := func(seed int64) timeseries.Series {
		rng := rand.New(rand.NewSource(seed))
		s := make(timeseries.Series, 64)
		for i := range s {
			s[i] = rng.NormFloat64()
		}
		return s
	}
	const seedEntries = 300
	for i := 0; i < seedEntries; i++ {
		if err := db.Add(fmt.Sprintf("label-%03d", i%37), mkSeries(int64(i))); err != nil {
			t.Fatal(err)
		}
	}

	const lookupWorkers = 6
	const adders = 2
	const perWorker = 40

	var wg sync.WaitGroup
	for w := 0; w < lookupWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sc := NewLookupScratch()
			var topk [3]Match
			q := mkSeries(int64(5000 + w))
			z := q.ZNormalize()
			qw, err := enc.Encode(z)
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < perWorker; i++ {
				m, err := db.LookupZWith(sc, z, qw, 1e9)
				if err != nil {
					t.Errorf("lookup: %v", err)
					return
				}
				if m.Label == "" {
					t.Error("empty label under huge threshold")
					return
				}
				ms, err := db.LookupKZWith(sc, z, qw, 3, topk[:0])
				if err != nil {
					t.Errorf("lookupK: %v", err)
					return
				}
				// Entries are append-only, so the second lookup sees a
				// superset of what the first saw: its best can only be
				// at least as close.
				if len(ms) != 3 || ms[0].Dist > m.Dist {
					t.Errorf("lookupK best %+v worse than earlier lookup %+v", ms[0], m)
					return
				}
				if ms[0].Dist > ms[1].Dist || ms[1].Dist > ms[2].Dist {
					t.Error("lookupK results not ascending")
					return
				}
			}
		}(w)
	}
	for a := 0; a < adders; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				label := fmt.Sprintf("dyn-%d-%d", a, i)
				if err := db.Add(label, mkSeries(int64(9000+a*perWorker+i))); err != nil {
					t.Errorf("add: %v", err)
					return
				}
			}
		}(a)
	}
	wg.Wait()

	want := seedEntries + adders*perWorker
	if got := db.Len(); got != want {
		t.Fatalf("entries lost: %d, want %d", got, want)
	}
}
