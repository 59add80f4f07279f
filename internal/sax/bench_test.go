package sax

import (
	"math"
	"math/rand"
	"testing"

	"hdc/internal/timeseries"
)

func benchSeries(n int) timeseries.Series {
	rng := rand.New(rand.NewSource(1))
	s := make(timeseries.Series, n)
	for i := range s {
		s[i] = rng.NormFloat64()
	}
	return s
}

func BenchmarkEncode128(b *testing.B) {
	enc, err := NewEncoder(16, 5)
	if err != nil {
		b.Fatal(err)
	}
	s := benchSeries(128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := enc.Encode(s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMinDist(b *testing.B) {
	enc, _ := NewEncoder(16, 5)
	s1, s2 := benchSeries(128), benchSeries(128)
	w1, _ := enc.Encode(s1)
	w2, _ := enc.Encode(s2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := enc.MinDist(w1, w2, 128); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMinDistRotationMirror(b *testing.B) {
	enc, _ := NewEncoder(16, 5)
	s1, s2 := benchSeries(128), benchSeries(128)
	w1, _ := enc.Encode(s1)
	w2, _ := enc.Encode(s2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := enc.MinDistRotationMirrorWindow(w1, w2, 128, -1); err != nil {
			b.Fatal(err)
		}
	}
}

// benchDB builds a database of n random smooth shapes spread over n/3+1
// labels — the fleet-scale dictionary profile (many exemplars per sign,
// per-site custom signs) the lookup cascade is designed for.
func benchDB(b *testing.B, n int) *Database {
	b.Helper()
	rng := rand.New(rand.NewSource(7))
	db := buildRandomDB(b, rng, n, n/3+1, 128)
	return db
}

// benchQuery prepares a z-normalised query and its word.
func benchQuery(b *testing.B, db *Database) (timeseries.Series, Word) {
	b.Helper()
	rng := rand.New(rand.NewSource(11))
	z := randSmoothSeries(rng, 128).ZNormalize()
	qw, err := db.Encoder().Encode(z)
	if err != nil {
		b.Fatal(err)
	}
	return z, qw
}

// benchmarkLookup times the cascade's scratch path (the steady state must
// report 0 allocs/op).
func benchmarkLookup(b *testing.B, entries int) {
	db := benchDB(b, entries)
	z, qw := benchQuery(b, db)
	sc := NewLookupScratch()
	if _, err := db.LookupZWith(sc, z, qw, math.Inf(1)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = db.LookupZWith(sc, z, qw, math.Inf(1))
	}
}

func BenchmarkDatabaseLookup10(b *testing.B)   { benchmarkLookup(b, 10) }
func BenchmarkDatabaseLookup100(b *testing.B)  { benchmarkLookup(b, 100) }
func BenchmarkDatabaseLookup1000(b *testing.B) { benchmarkLookup(b, 1000) }

// benchmarkLookupLinear times the retained linear-scan reference — the
// baseline the cascade's speedup is measured against.
func benchmarkLookupLinear(b *testing.B, entries int) {
	db := benchDB(b, entries)
	z, qw := benchQuery(b, db)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = db.LookupZLinear(z, qw, math.Inf(1))
	}
}

func BenchmarkDatabaseLookupLinear10(b *testing.B)   { benchmarkLookupLinear(b, 10) }
func BenchmarkDatabaseLookupLinear100(b *testing.B)  { benchmarkLookupLinear(b, 100) }
func BenchmarkDatabaseLookupLinear1000(b *testing.B) { benchmarkLookupLinear(b, 1000) }

// BenchmarkLookupParallel measures the database under the
// pipeline's access pattern: GOMAXPROCS goroutines, each with its own
// scratch, hammering lookups concurrently on a 1000-entry dictionary.
func BenchmarkLookupParallel(b *testing.B) {
	db := benchDB(b, 1000)
	z, qw := benchQuery(b, db)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		sc := NewLookupScratch()
		for pb.Next() {
			_, _ = db.LookupZWith(sc, z, qw, math.Inf(1))
		}
	})
}

// BenchmarkLookupK2 times the top-2 lookup the recogniser's confidence
// margin rides on.
func BenchmarkLookupK2(b *testing.B) {
	db := benchDB(b, 100)
	z, qw := benchQuery(b, db)
	sc := NewLookupScratch()
	var topk [2]Match
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = db.LookupKZWith(sc, z, qw, 2, topk[:0])
	}
}
