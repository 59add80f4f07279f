package sax_test

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"hdc/internal/sax"
	"hdc/internal/sax/store"
	"hdc/internal/timeseries"
)

// cascade_diff_test.go pins the cascade to the exhaustive linear scan
// (Database.LookupZLinear and its top-k form sax.LinearLookupKZ) on the
// families a lower-bounding filter finds hardest: exact duplicates that tie
// at distance 0, rotated and reflected copies at segment-aligned and
// unaligned shifts, small perturbations of them, and dictionaries of
// near-duplicates — over the in-memory Database and over a store with two
// sealed segments and a tail. Every Match field must agree bit for bit.

const diffN = 128

// smoothShape draws a band-limited closed-contour signature.
func smoothShape(rng *rand.Rand, n int) timeseries.Series {
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

// lobedShape draws a signature with the sharper lobes of a signaller's
// silhouette: ten harmonics with amplitudes falling as 1/k, plus noise.
func lobedShape(rng *rand.Rand, n int) timeseries.Series {
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

// perturb returns s plus independent noise of the given scale.
func perturb(rng *rand.Rand, s timeseries.Series, scale float64) timeseries.Series {
	p := s.Clone()
	for i := range p {
		p[i] += scale * rng.NormFloat64()
	}
	return p
}

// smoothWave returns s plus a random wave of its three lowest harmonics
// scaled to a Euclidean norm between maxNorm/2 and maxNorm: a near-duplicate
// of s that no word-level bound separates from it.
func smoothWave(rng *rand.Rand, s timeseries.Series, maxNorm float64) timeseries.Series {
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

// unalignedShift returns a shift that is not a multiple of the word's
// segment width (n/16 samples), where word-level rotations do not reach.
func unalignedShift(rng *rand.Rand, n int) int {
	w := n / 16
	return rng.Intn(16)*w + 1 + rng.Intn(w-1)
}

// copies derives the adversarial variants of base: an exact copy, rotations
// at segment-aligned (multiples of n/16) and unaligned shifts, reflections,
// and a 1e-9 perturbation.
func copies(rng *rand.Rand, base timeseries.Series) []timeseries.Series {
	n := len(base)
	aligned := (1 + rng.Intn(15)) * n / 16
	unaligned := unalignedShift(rng, n)
	return []timeseries.Series{
		base.Clone(),
		base.Rotate(aligned),
		base.Rotate(unaligned),
		base.Reverse(),
		base.Reverse().Rotate(-1),
		base.Reverse().Rotate(aligned),
		base.Reverse().Rotate(unaligned),
		perturb(rng, base, 1e-9),
	}
}

// diffFamily returns the dictionary (three bases, each stored with its
// copies, plus six unrelated shapes) and the queries (each base's copies
// drawn afresh, plus two unrelated shapes).
func diffFamily(rng *rand.Rand) (dict, queries []timeseries.Series) {
	for b := 0; b < 3; b++ {
		base := smoothShape(rng, diffN)
		dict = append(dict, base)
		dict = append(dict, copies(rng, base)...)
		queries = append(queries, copies(rng, base)...)
	}
	for i := 0; i < 6; i++ {
		dict = append(dict, smoothShape(rng, diffN))
	}
	queries = append(queries, smoothShape(rng, diffN), smoothShape(rng, diffN))
	return dict, queries
}

// lookuper is the LookupKZWith surface the Database and the Store share.
type lookuper interface {
	LookupKZWith(sc *sax.LookupScratch, z timeseries.Series, qw sax.Word, k int, dst []sax.Match) ([]sax.Match, error)
}

// backends holds one dictionary twice: in a Database, and in a store with
// two sealed segments and a tail, the same entries in the same order.
type backends struct {
	db *sax.Database
	st *store.Store
}

// newBackends adds dict, entry i labelled label(i), to both backends,
// sealing the store at a third and at two thirds of the way.
func newBackends(t testing.TB, dict []timeseries.Series, label func(int) string) backends {
	t.Helper()
	enc, err := sax.NewEncoder(16, 6)
	if err != nil {
		t.Fatal(err)
	}
	db, err := sax.NewDatabase(enc, diffN)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Create(filepath.Join(t.TempDir(), "st"), enc, diffN, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = st.Close() })
	for i, s := range dict {
		if err := db.Add(label(i), s); err != nil {
			t.Fatal(err)
		}
		if err := st.Add(label(i), s); err != nil {
			t.Fatal(err)
		}
		if i == len(dict)/3 || i == 2*len(dict)/3 {
			if err := st.Compact(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if sts := st.Stats(); len(sts.Segments) < 2 || sts.Tail == 0 {
		t.Fatalf("store layout %+v: want two segments and a tail", sts)
	}
	return backends{db: db, st: st}
}

// setShiftWindowFrac sets the rotation window on both backends.
func (b backends) setShiftWindowFrac(frac float64) {
	b.db.SetShiftWindowFrac(frac)
	b.st.SetShiftWindowFrac(frac)
}

// sameMatch reports whether two matches agree in every field, distances by
// their bits.
func sameMatch(g, w sax.Match) bool {
	return g.Label == w.Label && g.Word == w.Word &&
		math.Float64bits(g.WordDist) == math.Float64bits(w.WordDist) &&
		math.Float64bits(g.Dist) == math.Float64bits(w.Dist) &&
		g.Shift == w.Shift && g.Mirrored == w.Mirrored
}

// differ compares one query at each k in ks on both backends against the
// linear scan over b.db, and returns a description of the first
// disagreement, or "" when there is none. At k = 1 the answer is also
// checked against LookupZLinear itself, and every lookup's stage counters
// must account for every entry once.
func (b backends) differ(sc *sax.LookupScratch, q timeseries.Series, ks ...int) (string, error) {
	z := q.ZNormalize()
	qw, err := b.db.Encoder().Encode(z)
	if err != nil {
		return "", err
	}
	entries := b.db.Len()
	all, err := sax.LinearLookupKZ(b.db, z, qw, entries)
	if err != nil {
		return "", err
	}
	if len(all) > 0 {
		best, err := b.db.LookupZLinear(z, qw, math.Inf(1))
		if err != nil {
			return "", err
		}
		if !sameMatch(best, all[0]) {
			return fmt.Sprintf("top-k oracle %+v disagrees with LookupZLinear %+v", all[0], best), nil
		}
	}
	var buf []sax.Match
	for _, k := range ks {
		want := all[:min(k, len(all))]
		for _, bk := range []struct {
			name string
			l    lookuper
		}{{"database", b.db}, {"store", b.st}} {
			if buf, err = bk.l.LookupKZWith(sc, z, qw, k, buf[:0]); err != nil {
				return "", err
			}
			st := sc.Stats()
			if st.Entries != entries || st.Entries != st.SpecPruned+st.ExactEvals {
				return fmt.Sprintf("%s k=%d: stats %+v do not account for %d entries", bk.name, k, st, entries), nil
			}
			if len(buf) != len(want) {
				return fmt.Sprintf("%s k=%d: %d matches, linear %d", bk.name, k, len(buf), len(want)), nil
			}
			for i := range buf {
				if !sameMatch(buf[i], want[i]) {
					return fmt.Sprintf("%s k=%d: match %d\n  cascade %+v\n  linear  %+v", bk.name, k, i, buf[i], want[i]), nil
				}
			}
		}
	}
	return "", nil
}

// requireAgreement runs differ over queries and fails the test with the
// number of disagreeing queries and the first one.
func (b backends) requireAgreement(t *testing.T, ctx string, queries []timeseries.Series, ks ...int) {
	t.Helper()
	sc := sax.NewLookupScratch()
	bad, first := 0, ""
	for qi, q := range queries {
		msg, err := b.differ(sc, q, ks...)
		if err != nil {
			t.Fatalf("%s q=%d: %v", ctx, qi, err)
		}
		if msg != "" {
			if bad == 0 {
				first = fmt.Sprintf("q=%d %s", qi, msg)
			}
			bad++
		}
	}
	if bad > 0 {
		t.Fatalf("%s: %d of %d queries disagree with the linear scan; first: %s", ctx, bad, len(queries), first)
	}
}

func signLabel(i int) string { return fmt.Sprintf("sign-%02d", i%5) }

// TestCascadeMatchesReference holds the Database to the linear scan on the
// adversarial copy family at several k and both window settings.
func TestCascadeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1901))
	for round := 0; round < 4; round++ {
		dict, queries := diffFamily(rng)
		b := newBackends(t, dict, signLabel)
		for _, frac := range []float64{0, 0.15} {
			b.setShiftWindowFrac(frac)
			b.requireAgreement(t, fmt.Sprintf("round=%d frac=%v", round, frac), queries, 1, 2, 4, 16)
		}
	}
}

// TestStoreCascadeMatchesReference is TestCascadeMatchesReference at
// dictionary sizes where the store's segments hold several entries each.
func TestStoreCascadeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1902))
	for round := 0; round < 2; round++ {
		var dict, queries []timeseries.Series
		for i := 0; i < 3; i++ {
			d, q := diffFamily(rng)
			dict, queries = append(dict, d...), append(queries, q...)
		}
		b := newBackends(t, dict, signLabel)
		for _, frac := range []float64{0, 0.15} {
			b.setShiftWindowFrac(frac)
			b.requireAgreement(t, fmt.Sprintf("store round=%d frac=%v", round, frac), queries, 1, 4)
		}
	}
}

// TestCascadeMatchesLinearNearDuplicates is the near-duplicate reproducer:
// nine lobed references plus smooth near-duplicates of norm ≤ 1.5, 700
// entries in all, queried by references perturbed to norm ≤ 2.0, rotated by
// a random unaligned shift, with 0.1 noise added. Word-level bounds rotated
// by whole segments return a farther entry than the linear scan for about
// one query in eight of this family.
func TestCascadeMatchesLinearNearDuplicates(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	refs := make([]timeseries.Series, 9)
	for i := range refs {
		refs[i] = lobedShape(rng, diffN)
	}
	dict := append([]timeseries.Series{}, refs...)
	for len(dict) < 700 {
		dict = append(dict, smoothWave(rng, refs[rng.Intn(len(refs))], 1.5))
	}
	b := newBackends(t, dict, func(i int) string {
		if i < len(refs) {
			return fmt.Sprintf("sign-%d", i)
		}
		return fmt.Sprintf("sign-%d", i%len(refs))
	})
	queries := make([]timeseries.Series, 48)
	for i := range queries {
		q := smoothWave(rng, refs[rng.Intn(len(refs))], 2.0).Rotate(unalignedShift(rng, diffN))
		queries[i] = perturb(rng, q, 0.1)
	}
	b.requireAgreement(t, "near-duplicates", queries, 1, 4)
}

// TestCascadeMatchesLinearNoisyCopies is the copy reproducer: dictionaries
// of bases stored with rotated and reflected copies at unaligned shifts,
// queried by fresh copies carrying noise from 1e-3 to 5e-2 — close enough
// that the nearest entry is a copy, far enough that it is not a tie.
func TestCascadeMatchesLinearNoisyCopies(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for round := 0; round < 8; round++ {
		var dict []timeseries.Series
		var bases []timeseries.Series
		for i := 0; i < 3; i++ {
			base := smoothShape(rng, diffN)
			bases = append(bases, base)
			for _, c := range copies(rng, base) {
				dict = append(dict, perturb(rng, c, 1e-2))
			}
		}
		for i := 0; i < 4; i++ {
			dict = append(dict, smoothShape(rng, diffN))
		}
		b := newBackends(t, dict, signLabel)
		var queries []timeseries.Series
		for _, noise := range []float64{1e-3, 3e-3, 1e-2, 5e-2} {
			for _, base := range bases {
				s := unalignedShift(rng, diffN)
				queries = append(queries,
					perturb(rng, base.Rotate(s), noise),
					perturb(rng, base.Reverse().Rotate(s), noise))
			}
		}
		b.requireAgreement(t, fmt.Sprintf("round=%d", round), queries, 1, 3)
	}
}

// TestLookupStatsAccountForEveryEntry pins the stage accounting: every
// scanned entry is either pruned by the spectral bound or aligned exactly,
// and the bound does prune on the adversarial family.
func TestLookupStatsAccountForEveryEntry(t *testing.T) {
	rng := rand.New(rand.NewSource(1903))
	dict, queries := diffFamily(rng)
	b := newBackends(t, dict, signLabel)
	sc := sax.NewLookupScratch()
	var buf []sax.Match
	specPruned := 0
	for qi, q := range queries {
		z := q.ZNormalize()
		qw, err := b.db.Encoder().Encode(z)
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range []lookuper{b.db, b.st} {
			for _, k := range []int{1, 4} {
				if buf, err = l.LookupKZWith(sc, z, qw, k, buf[:0]); err != nil {
					t.Fatal(err)
				}
				st := sc.Stats()
				if st.Entries != len(dict) || st.Entries != st.SpecPruned+st.ExactEvals {
					t.Fatalf("q=%d k=%d: stats %+v do not partition %d entries", qi, k, st, len(dict))
				}
				specPruned += st.SpecPruned
			}
		}
	}
	if specPruned == 0 {
		t.Fatal("the spectral stage never pruned")
	}
}

// FuzzCascadeMatchesLinear drives both backends against the linear scan
// over dictionaries of a base shape's rotated, reflected and perturbed
// copies at fuzzer-chosen shifts, plus unrelated shapes. seed draws the
// shapes; shift and mirror place the query; noise sets the copies'
// perturbation scale, from exact copies to 0.1; frac picks the rotation
// window.
func FuzzCascadeMatchesLinear(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, shift uint16, mirror bool, noise uint8, frac uint8) {
		rng := rand.New(rand.NewSource(seed))
		scale := 0.0
		if noise > 0 {
			scale = 0.1 * math.Pow(10, -float64(noise%10)) // 0.1 … 1e-10
		}
		base := lobedShape(rng, diffN)
		s := int(shift) % diffN
		dict := []timeseries.Series{
			base.Clone(),
			perturb(rng, base.Rotate(s), scale),
			perturb(rng, base.Reverse().Rotate(s), scale),
			perturb(rng, base.Rotate(unalignedShift(rng, diffN)), scale),
			perturb(rng, base.Reverse().Rotate(-1), scale),
			smoothWave(rng, base, 1.5),
			smoothShape(rng, diffN),
			smoothShape(rng, diffN),
			smoothShape(rng, diffN),
		}
		q := base.Rotate(s + 1)
		if mirror {
			q = base.Reverse().Rotate(s + 1)
		}
		q = perturb(rng, q, scale)
		b := newBackends(t, dict, signLabel)
		b.setShiftWindowFrac([]float64{0, 0.15, 0.5}[int(frac)%3])
		msg, err := b.differ(sax.NewLookupScratch(), q, 1, 2, 4)
		if err != nil {
			t.Fatal(err)
		}
		if msg != "" {
			t.Fatal(msg)
		}
	})
}
