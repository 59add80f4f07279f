package store

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"hdc/internal/sax"
	"hdc/internal/timeseries"
)

// cache_test.go holds the exact stage's cached transforms and the spectral
// bound that decides which entries reach it: the bound's work on the
// near-duplicate dictionary is pinned as a count, and concurrent first
// lookups, which race to publish each entry's transform, must answer what
// the linear scan answers.

// lobedRef draws a signature with the sharper lobes of a signaller's
// silhouette: ten harmonics with amplitudes falling as 1/k, plus noise.
func lobedRef(rng *rand.Rand, n int) timeseries.Series {
	s := make(timeseries.Series, n)
	for k := 1; k <= 10; k++ {
		a := rng.NormFloat64() / float64(k)
		p := rng.Float64() * 2 * math.Pi
		for i := range s {
			s[i] += a * math.Cos(2*math.Pi*float64(k*i)/float64(n)+p)
		}
	}
	for i := range s {
		s[i] += 0.02 * rng.NormFloat64()
	}
	return s.ZNormalize()
}

// nearDuplicate returns s plus a random wave of its three lowest harmonics
// scaled to a Euclidean norm between maxNorm/2 and maxNorm.
func nearDuplicate(rng *rand.Rand, s timeseries.Series, maxNorm float64) timeseries.Series {
	n := len(s)
	wave := make([]float64, n)
	for k := 1; k <= 3; k++ {
		a := rng.NormFloat64() / float64(k)
		ph := 2 * math.Pi * rng.Float64()
		for i := range wave {
			wave[i] += a * math.Sin(2*math.Pi*float64(k*i)/float64(n)+ph)
		}
	}
	var ss float64
	for _, v := range wave {
		ss += v * v
	}
	scale := maxNorm * (0.5 + 0.5*rng.Float64()) / math.Sqrt(ss)
	out := s.Clone()
	for i := range out {
		out[i] += scale * wave[i]
	}
	return out
}

// nearDuplicateStore builds the sign_store-shaped dictionary: nine lobed
// references plus near-duplicates of norm ≤ 1.5 under the references'
// labels, 700 entries sealed in one segment. It returns the open store and
// queries: references with a norm ≤ 2.0 wave, rotated by any shift, plus
// 0.1 noise.
func nearDuplicateStore(t *testing.T, seed int64, queries int) (*Store, []timeseries.Series) {
	t.Helper()
	const n = 128
	rng := rand.New(rand.NewSource(seed))
	refs := make([]timeseries.Series, 9)
	for i := range refs {
		refs[i] = lobedRef(rng, n)
	}
	dir := filepath.Join(t.TempDir(), "st")
	b, err := NewBuilder(dir, newTestEncoder(t), n, BuilderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range refs {
		if err := b.AddSeries(fmt.Sprintf("sign-%d", i), r); err != nil {
			t.Fatal(err)
		}
	}
	for b.Entries() < 700 {
		i := rng.Intn(len(refs))
		if err := b.AddSeries(fmt.Sprintf("sign-%d", i), nearDuplicate(rng, refs[i], 1.5)); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = st.Close() })
	qs := make([]timeseries.Series, queries)
	for i := range qs {
		q := nearDuplicate(rng, refs[rng.Intn(len(refs))], 2.0).Rotate(rng.Intn(n))
		for j := range q {
			q[j] += 0.1 * rng.NormFloat64()
		}
		qs[i] = q.ZNormalize()
	}
	return st, qs
}

// exactEvalsPinned is the total number of exact alignments the cascade runs
// for TestCascadeExactEvalsPinned's lookups. It is a property of the bound,
// not of timing: a weaker or looser spectral bound lets more entries
// through and moves it. With the earlier four-term bound it was 9560.
const exactEvalsPinned = 6339

// TestCascadeExactEvalsPinned pins how much exact work the cascade does on
// the near-duplicate dictionary, where the spectral bound is what keeps the
// lookup cheap: 48 queries at k = 1 and k = 4 over 700 entries.
func TestCascadeExactEvalsPinned(t *testing.T) {
	st, queries := nearDuplicateStore(t, 31, 48)
	sc := sax.NewLookupScratch()
	var dst []sax.Match
	total := 0
	for qi, z := range queries {
		qw, err := st.Encoder().Encode(z)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{1, 4} {
			if dst, err = st.LookupKZWith(sc, z, qw, k, dst[:0]); err != nil {
				t.Fatal(err)
			}
			stats := sc.Stats()
			if stats.Entries != 700 || stats.SpecPruned+stats.ExactEvals != 700 {
				t.Fatalf("q=%d k=%d: stats %+v do not partition 700 entries", qi, k, stats)
			}
			total += stats.ExactEvals
		}
	}
	if total != exactEvalsPinned {
		t.Fatalf("exact evaluations = %d over %d lookups, pinned %d (%.3f of the entries scanned)",
			total, 2*len(queries), exactEvalsPinned, float64(total)/float64(2*len(queries)*700))
	}
}

// TestConcurrentFirstLookupsMatchLinear races first lookups to publish each
// entry's transform: four goroutines with their own scratches query a fresh
// store (a sealed segment and a tail) and a fresh Database holding the same
// entries, while a compaction seals the tail mid-run, so its entries start
// over with empty slots in the new segment. Every answer must equal
// LookupZLinear's, field for field. Run with -race.
func TestConcurrentFirstLookupsMatchLinear(t *testing.T) {
	const n = 128
	rng := rand.New(rand.NewSource(47))
	st, db := buildPair(t, rng, filepath.Join(t.TempDir(), "st"), 120, n, Options{})
	defer st.Close()
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		label, s := fmt.Sprintf("late-%d", i%4), randSmoothSeries(rng, n)
		if err := st.Add(label, s); err != nil {
			t.Fatal(err)
		}
		if err := db.Add(label, s); err != nil {
			t.Fatal(err)
		}
	}

	// Queries: perturbed rotations of stored shapes, so many entries reach
	// the exact stage, and fresh shapes; the oracle answers come first,
	// before any lookup fills a slot.
	type query struct {
		z    timeseries.Series
		qw   sax.Word
		want sax.Match
	}
	entries := db.Entries()
	qs := make([]query, 24)
	for i := range qs {
		q := randSmoothSeries(rng, n)
		if i%3 != 2 {
			q = entries[rng.Intn(len(entries))].Series.Rotate(rng.Intn(n)).Clone()
			for j := range q {
				q[j] += 0.05 * rng.NormFloat64()
			}
		}
		z := q.ZNormalize()
		qw, err := db.Encoder().Encode(z)
		if err != nil {
			t.Fatal(err)
		}
		want, err := db.LookupZLinear(z, qw, math.Inf(1))
		if err != nil {
			t.Fatal(err)
		}
		qs[i] = query{z, qw, want}
	}

	type lookuper interface {
		LookupZWith(sc *sax.LookupScratch, z timeseries.Series, qw sax.Word, threshold float64) (sax.Match, error)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sc := sax.NewLookupScratch()
			for pass := 0; pass < 2; pass++ {
				for i := range qs {
					q := qs[(i*(w+1)+w)%len(qs)]
					for _, d := range []lookuper{st, db} {
						got, err := d.LookupZWith(sc, q.z, q.qw, math.Inf(1))
						if err != nil {
							t.Error(err)
							return
						}
						if got.Label != q.want.Label || got.Word != q.want.Word ||
							math.Float64bits(got.Dist) != math.Float64bits(q.want.Dist) ||
							math.Float64bits(got.WordDist) != math.Float64bits(q.want.WordDist) ||
							got.Shift != q.want.Shift || got.Mirrored != q.want.Mirrored {
							t.Errorf("worker %d %T: %+v, linear %+v", w, d, got, q.want)
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := st.Compact(); err != nil {
			t.Error(err)
		}
	}()
	wg.Wait()

	stats := st.Stats()
	if stats.Tail != 0 || len(stats.Segments) != 2 {
		t.Fatalf("store layout after the mid-run compaction: %+v", stats)
	}
	if per := int64(8*n + 64); stats.TransformBytes <= 0 || stats.TransformBytes > int64(stats.Entries)*per {
		t.Fatalf("TransformBytes = %d for %d entries", stats.TransformBytes, stats.Entries)
	}
}
