package store

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"sync"
	"testing"

	"hdc/internal/sax"
	"hdc/internal/timeseries"
)

// bench_test.go measures the store's two hot paths: lookups over mapped
// segments (BenchmarkStoreLookup*, which must hold the cascade's
// zero-allocation steady state) and cold opens (BenchmarkStoreOpen — the
// property that motivates the format: a replica restart maps the dictionary
// instead of re-parsing JSON). The large fixture store is built once per
// process and shared by every benchmark and -count rerun.

// benchStores caches built store directories by entry count.
var benchStores sync.Map // int -> string (dir)
var benchStoreMu sync.Mutex

// benchStoreDir returns (building on first use) a sealed store of n entries
// with the same shape profile as the sax package's benchDB: 128-sample
// smooth contours over n/3+1 labels.
func benchStoreDir(b *testing.B, n int) string {
	b.Helper()
	benchStoreMu.Lock()
	defer benchStoreMu.Unlock()
	if dir, ok := benchStores.Load(n); ok {
		return dir.(string)
	}
	dir, err := os.MkdirTemp("", fmt.Sprintf("hdc-bench-store-%d-", n))
	if err != nil {
		b.Fatal(err)
	}
	enc, err := sax.NewEncoder(16, 6)
	if err != nil {
		b.Fatal(err)
	}
	bl, err := NewBuilder(dir, enc, 128, BuilderOptions{})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	nLabels := n/3 + 1
	for i := 0; i < n; i++ {
		if err := bl.AddSeries(fmt.Sprintf("sign-%02d", i%nLabels), randSmoothSeries(rng, 128)); err != nil {
			b.Fatal(err)
		}
	}
	if err := bl.Commit(); err != nil {
		b.Fatal(err)
	}
	benchStores.Store(n, dir)
	return dir
}

func TestMain(m *testing.M) {
	code := m.Run()
	benchStores.Range(func(_, dir any) bool {
		os.RemoveAll(dir.(string))
		return true
	})
	os.Exit(code)
}

// benchmarkStoreLookup times the mapped cascade (steady state must report
// 0 allocs/op: spectra are derived once per segment, views borrow the
// mapping).
func benchmarkStoreLookup(b *testing.B, entries int) {
	st, err := Open(benchStoreDir(b, entries), Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	rng := rand.New(rand.NewSource(11))
	z := randSmoothSeries(rng, 128).ZNormalize()
	qw, err := st.Encoder().Encode(z)
	if err != nil {
		b.Fatal(err)
	}
	sc := sax.NewLookupScratch()
	if _, err := st.LookupZWith(sc, z, qw, math.Inf(1)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = st.LookupZWith(sc, z, qw, math.Inf(1))
	}
}

func BenchmarkStoreLookup1k(b *testing.B)   { benchmarkStoreLookup(b, 1000) }
func BenchmarkStoreLookup100k(b *testing.B) { benchmarkStoreLookup(b, 100_000) }

// BenchmarkStoreOpen times a cold open of the 100k-entry store: manifest
// load, segment mapping and structural validation — no entry decode, which
// is the point of the format.
func BenchmarkStoreOpen(b *testing.B) {
	dir := benchStoreDir(b, 100_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := Open(dir, Options{})
		if err != nil {
			b.Fatal(err)
		}
		if err := st.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreLookupParallel mirrors the sax package's parallel benchmark:
// GOMAXPROCS goroutines with private scratches over the mapped dictionary.
func BenchmarkStoreLookupParallel(b *testing.B) {
	st, err := Open(benchStoreDir(b, 1000), Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	rng := rand.New(rand.NewSource(11))
	z := randSmoothSeries(rng, 128).ZNormalize()
	qw, err := st.Encoder().Encode(z)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		sc := sax.NewLookupScratch()
		for pb.Next() {
			_, _ = st.LookupZWith(sc, z, qw, math.Inf(1))
		}
	})
}

// BenchmarkStoreAdd times the append path (log write + tail precompute).
func BenchmarkStoreAdd(b *testing.B) {
	dir := b.TempDir()
	enc, err := sax.NewEncoder(16, 6)
	if err != nil {
		b.Fatal(err)
	}
	st, err := create(dir, enc, 128, Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	s := make(timeseries.Series, 128)
	rng := rand.New(rand.NewSource(3))
	for i := range s {
		s[i] = rng.NormFloat64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := st.Add("bench", s); err != nil {
			b.Fatal(err)
		}
	}
}
