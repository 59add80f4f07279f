package store

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"hdc/internal/sax"
	"hdc/internal/timeseries"
)

// store_test.go covers the functional surface: build/open/add/lookup,
// compaction, conversion, snapshots — and above all the equivalence pin: a
// store-backed lookup must return byte-identical results to the in-memory
// Database's cascade for the same insertion sequence, across every storage
// state (pure tail, sealed, sealed+tail, merged, reopened).

// randSmoothSeries draws a random band-limited series (same shape family as
// the sax package's equivalence tests).
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

// newTestEncoder returns the encoder the tests share.
func newTestEncoder(t testing.TB) *sax.Encoder {
	t.Helper()
	enc, err := sax.NewEncoder(16, 6)
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

// buildPair fills a fresh store and an identical in-memory database with the
// same entries in the same order.
func buildPair(t testing.TB, rng *rand.Rand, dir string, nEntries, n int, opts Options) (*Store, *sax.Database) {
	t.Helper()
	enc := newTestEncoder(t)
	st, err := create(dir, enc, n, opts)
	if err != nil {
		t.Fatal(err)
	}
	db, err := sax.NewDatabase(newTestEncoder(t), n)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nEntries; i++ {
		label := fmt.Sprintf("sign-%02d", i%7)
		s := randSmoothSeries(rng, n)
		if err := st.Add(label, s); err != nil {
			t.Fatal(err)
		}
		if err := db.Add(label, s); err != nil {
			t.Fatal(err)
		}
	}
	return st, db
}

// matchesEqual requires byte-identical match sets (distance bits included).
func matchesEqual(t *testing.T, ctx string, got, want []sax.Match) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d matches, want %d", ctx, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Label != w.Label || g.Word.Symbols != w.Word.Symbols ||
			math.Float64bits(g.WordDist) != math.Float64bits(w.WordDist) ||
			math.Float64bits(g.Dist) != math.Float64bits(w.Dist) ||
			g.Shift != w.Shift || g.Mirrored != w.Mirrored {
			t.Fatalf("%s: match %d differs:\n  got  %+v\n  want %+v", ctx, i, g, w)
		}
	}
}

// checkEquivalence compares store and database lookups over a query sweep.
func checkEquivalence(t *testing.T, ctx string, st *Store, db *sax.Database, rng *rand.Rand, n int) {
	t.Helper()
	scS, scD := sax.NewLookupScratch(), sax.NewLookupScratch()
	var bufS, bufD []sax.Match
	for q := 0; q < 12; q++ {
		s := randSmoothSeries(rng, n)
		z := s.ZNormalize()
		qw, err := db.Encoder().Encode(z)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{1, 4} {
			var errS, errD error
			bufS, errS = st.LookupKZWith(scS, z, qw, k, bufS[:0])
			bufD, errD = db.LookupKZWith(scD, z, qw, k, bufD[:0])
			if (errS == nil) != (errD == nil) {
				t.Fatalf("%s: error mismatch: store %v, db %v", ctx, errS, errD)
			}
			matchesEqual(t, fmt.Sprintf("%s k=%d q=%d", ctx, k, q), bufS, bufD)
		}
	}
}

func TestStoreMatchesDatabaseAcrossStates(t *testing.T) {
	rng := rand.New(rand.NewSource(977))
	const n = 128
	for _, size := range []int{1, 3, 40, 150} {
		dir := filepath.Join(t.TempDir(), "st")
		st, db := buildPair(t, rng, dir, size, n, Options{})
		checkEquivalence(t, fmt.Sprintf("size=%d tail-only", size), st, db, rng, n)

		// Seal the tail, then grow a fresh tail on top of the segment.
		if err := st.Compact(); err != nil {
			t.Fatal(err)
		}
		checkEquivalence(t, fmt.Sprintf("size=%d sealed", size), st, db, rng, n)
		for i := 0; i < 5; i++ {
			s := randSmoothSeries(rng, n)
			if err := st.Add("late", s); err != nil {
				t.Fatal(err)
			}
			if err := db.Add("late", s); err != nil {
				t.Fatal(err)
			}
		}
		checkEquivalence(t, fmt.Sprintf("size=%d sealed+tail", size), st, db, rng, n)

		// Second seal → two segments; then a full merge → one segment.
		if err := st.Compact(); err != nil {
			t.Fatal(err)
		}
		checkEquivalence(t, fmt.Sprintf("size=%d two-segments", size), st, db, rng, n)
		if err := st.CompactFull(); err != nil {
			t.Fatal(err)
		}
		checkEquivalence(t, fmt.Sprintf("size=%d merged", size), st, db, rng, n)

		// Reopen from disk: same results again.
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		st2, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		checkEquivalence(t, fmt.Sprintf("size=%d reopened", size), st2, db, rng, n)
		if err := st2.CheckIntegrity(); err != nil {
			t.Fatal(err)
		}
		if err := st2.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestStoreWindowedLookupMatchesDatabase(t *testing.T) {
	rng := rand.New(rand.NewSource(431))
	const n = 128
	dir := filepath.Join(t.TempDir(), "st")
	st, db := buildPair(t, rng, dir, 60, n, Options{})
	defer st.Close()
	st.SetShiftWindowFrac(0.15)
	db.SetShiftWindowFrac(0.15)
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	checkEquivalence(t, "windowed", st, db, rng, n)
}

func TestStoreReopenPreservesTailAndOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 64
	dir := filepath.Join(t.TempDir(), "st")
	st, db := buildPair(t, rng, dir, 30, n, Options{})
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	// Ten more entries stay in the WAL tail across the reopen.
	for i := 0; i < 10; i++ {
		s := randSmoothSeries(rng, n)
		if err := st.Add("tail", s); err != nil {
			t.Fatal(err)
		}
		if err := db.Add("tail", s); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.Len() != 40 {
		t.Fatalf("Len after reopen = %d, want 40", st2.Len())
	}
	stats := st2.Stats()
	if stats.Sealed != 30 || stats.Tail != 10 {
		t.Fatalf("stats after reopen: sealed %d tail %d, want 30/10", stats.Sealed, stats.Tail)
	}
	checkEquivalence(t, "reopen-with-tail", st2, db, rng, n)
}

func TestAutoCompaction(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	const n = 64
	dir := filepath.Join(t.TempDir(), "st")
	enc := newTestEncoder(t)
	st, err := create(dir, enc, n, Options{CompactEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for i := 0; i < 50; i++ {
		if err := st.Add("s", randSmoothSeries(rng, n)); err != nil {
			t.Fatal(err)
		}
	}
	// The threshold pass runs in the background; wait for it to land before
	// sealing the remainder, so the test observes both compaction paths.
	deadline := time.Now().Add(5 * time.Second)
	for st.Stats().Sealed == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if st.Stats().Sealed == 0 {
		t.Fatal("background compaction never ran")
	}
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	stats := st.Stats()
	if stats.Tail != 0 || stats.Sealed != 50 {
		t.Fatalf("after auto+final compaction: sealed %d tail %d, want 50/0", stats.Sealed, stats.Tail)
	}
	// Segment count depends on when the background goroutine was scheduled
	// (it may seal everything accumulated so far in one pass), so only the
	// invariants are asserted, not the exact partitioning.
	if len(stats.Segments) < 1 {
		t.Fatalf("auto-compaction produced %d segments, want ≥ 1", len(stats.Segments))
	}
	if stats.LastCompactErr != "" {
		t.Fatalf("background compaction error: %s", stats.LastCompactErr)
	}
}

func TestConvertV1RoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n = 96
	enc := newTestEncoder(t)
	db, err := sax.NewDatabase(enc, n)
	if err != nil {
		t.Fatal(err)
	}
	db.SetShiftWindowFrac(0.2)
	for i := 0; i < 37; i++ {
		if err := db.Add(fmt.Sprintf("g-%d", i%5), randSmoothSeries(rng, n)); err != nil {
			t.Fatal(err)
		}
	}
	v1 := filepath.Join(t.TempDir(), "db.json")
	f, err := os.Create(v1)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	dir := filepath.Join(t.TempDir(), "st")
	in, err := os.Open(v1)
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	// A tiny segment cap forces a multi-segment conversion.
	count, err := ConvertV1(in, dir, BuilderOptions{MaxSegmentEntries: 10})
	if err != nil {
		t.Fatal(err)
	}
	if count != 37 {
		t.Fatalf("converted %d entries, want 37", count)
	}
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.Len() != 37 {
		t.Fatalf("store Len = %d, want 37", st.Len())
	}
	if got := len(st.Stats().Segments); got != 4 {
		t.Fatalf("conversion produced %d segments, want 4", got)
	}
	// The converted store inherits the v1 shift window, so results must pin
	// to the database's windowed cascade.
	checkEquivalence(t, "converted", st, db, rng, n)
}

func TestLookupThresholdSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n = 64
	dir := filepath.Join(t.TempDir(), "st")
	st, _ := buildPair(t, rng, dir, 10, n, Options{})
	defer st.Close()
	q := randSmoothSeries(rng, n)
	z := q.ZNormalize()
	qw, err := st.Encoder().Encode(z)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.LookupZWith(nil, z, qw, math.Inf(1)); err != nil {
		t.Fatalf("unbounded lookup: %v", err)
	}
	m, err := st.LookupZWith(nil, z, qw, -1)
	if err == nil {
		t.Fatal("impossible threshold accepted a match")
	}
	if m.Label == "" {
		t.Fatal("rejected lookup should still report the best candidate")
	}
}

func TestCreateRefusesExistingStore(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "st")
	enc := newTestEncoder(t)
	st, err := create(dir, enc, 64, Options{})
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	if _, err := create(dir, enc, 64, Options{}); err == nil {
		t.Fatal("creating over an existing store must fail")
	}
}

// TestLookupKZWithZeroAllocs pins the store lookup's steady state — sealed
// segments and a tail, all four cascade stages — at zero allocations.
func TestLookupKZWithZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	const n = 128
	st, _ := buildPair(t, rng, filepath.Join(t.TempDir(), "st"), 150, n, Options{})
	defer st.Close()
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := st.Add("late", randSmoothSeries(rng, n)); err != nil {
			t.Fatal(err)
		}
	}
	z := randSmoothSeries(rng, n).ZNormalize()
	qw, err := st.Encoder().Encode(z)
	if err != nil {
		t.Fatal(err)
	}
	sc := sax.NewLookupScratch()
	dst := make([]sax.Match, 0, 4)
	allocs := testing.AllocsPerRun(50, func() {
		if dst, err = st.LookupKZWith(sc, z, qw, 4, dst[:0]); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("LookupKZWith allocates %v per lookup in steady state", allocs)
	}
}

// create makes an empty store in dir through the bulk builder and opens it.
func create(dir string, enc *sax.Encoder, seriesLen int, opts Options) (*Store, error) {
	b, err := NewBuilder(dir, enc, seriesLen, BuilderOptions{})
	if err != nil {
		return nil, err
	}
	if err := b.Commit(); err != nil {
		return nil, err
	}
	return Open(dir, opts)
}

// SetShiftWindowFrac restricts the rotation-alignment search exactly as
// Database.SetShiftWindowFrac does.
func (s *Store) SetShiftWindowFrac(frac float64) {
	s.mu.Lock()
	s.shiftFrac = frac
	s.mu.Unlock()
}
