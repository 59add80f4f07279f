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

// cascade_diff_test.go pins the four-stage cascade (spectral bound and FFT
// aligner) to the three-stage reference in cascade_ref_test.go, on the
// family a tolerance-based filter finds hardest: exact duplicates that tie
// at distance 0, rotated and reflected copies at segment-aligned and
// unaligned shifts, and 1e-9 perturbations — over the in-memory Database
// and over a store with sealed segments and a tail. The smooth random family
// of equivalence_test.go did not catch a relative-only prune margin; this
// one does.

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

// perturb returns s plus independent noise of the given scale.
func perturb(rng *rand.Rand, s timeseries.Series, scale float64) timeseries.Series {
	p := s.Clone()
	for i := range p {
		p[i] += scale * rng.NormFloat64()
	}
	return p
}

// copies derives the adversarial variants of base: an exact copy, rotations
// at segment-aligned (multiples of n/16) and unaligned shifts, reflections,
// and a 1e-9 perturbation.
func copies(rng *rand.Rand, base timeseries.Series) []timeseries.Series {
	n := len(base)
	aligned := (1 + rng.Intn(15)) * n / 16
	unaligned := aligned + 1 + rng.Intn(n/16-1)
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

// checkAgainstReference runs every query at k ∈ {1, 2, 4, 16} through got
// and through the reference cascade over ref (the same entries in the same
// order), requiring identical matches — distance bits included — and
// identical stage accounting: the reference's exact evaluations split into
// the new cascade's spectral prunes and exact evaluations.
func checkAgainstReference(t *testing.T, ctx string, got lookuper, ref *sax.Database, queries []timeseries.Series) {
	t.Helper()
	scG, scR := sax.NewLookupScratch(), sax.NewLookupScratch()
	var bufG, bufR []sax.Match
	for qi, q := range queries {
		z := q.ZNormalize()
		qw, err := ref.Encoder().Encode(z)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{1, 2, 4, 16} {
			var errG, errR error
			bufG, errG = got.LookupKZWith(scG, z, qw, k, bufG[:0])
			bufR, errR = sax.RefLookupKZ(ref, scR, z, qw, k, bufR[:0])
			if errG != nil || errR != nil {
				t.Fatalf("%s q=%d k=%d: errors %v / %v", ctx, qi, k, errG, errR)
			}
			where := fmt.Sprintf("%s q=%d k=%d", ctx, qi, k)
			if len(bufG) != len(bufR) {
				t.Fatalf("%s: %d matches, reference %d", where, len(bufG), len(bufR))
			}
			for i := range bufG {
				g, w := bufG[i], bufR[i]
				if g.Label != w.Label || g.Word.Symbols != w.Word.Symbols ||
					math.Float64bits(g.WordDist) != math.Float64bits(w.WordDist) ||
					math.Float64bits(g.Dist) != math.Float64bits(w.Dist) ||
					g.Shift != w.Shift || g.Mirrored != w.Mirrored {
					t.Fatalf("%s: match %d differs:\n  got       %+v\n  reference %+v", where, i, g, w)
				}
			}
			sg, sr := scG.Stats(), scR.Stats()
			if sg.Entries != sr.Entries || sg.HistPruned != sr.HistPruned || sg.WordPruned != sr.WordPruned ||
				sg.SpecPruned+sg.ExactEvals != sr.ExactEvals {
				t.Fatalf("%s: stage accounting %+v, reference %+v", where, sg, sr)
			}
		}
	}
}

// newDiffDB returns an empty database with the tests' encoder.
func newDiffDB(t *testing.T) (*sax.Encoder, *sax.Database) {
	t.Helper()
	enc, err := sax.NewEncoder(16, 6)
	if err != nil {
		t.Fatal(err)
	}
	db, err := sax.NewDatabase(enc, diffN)
	if err != nil {
		t.Fatal(err)
	}
	return enc, db
}

func TestCascadeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1901))
	for round := 0; round < 4; round++ {
		dict, queries := diffFamily(rng)
		_, db := newDiffDB(t)
		for i, s := range dict {
			if err := db.Add(fmt.Sprintf("sign-%02d", i%5), s); err != nil {
				t.Fatal(err)
			}
		}
		for _, frac := range []float64{0, 0.15} {
			db.SetShiftWindowFrac(frac)
			checkAgainstReference(t, fmt.Sprintf("round=%d frac=%v", round, frac), db, db, queries)
		}
	}
}

func TestStoreCascadeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1902))
	for round := 0; round < 2; round++ {
		dict, queries := diffFamily(rng)
		enc, db := newDiffDB(t)
		st, err := store.Create(filepath.Join(t.TempDir(), "st"), enc, diffN, store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		// Two sealed segments, then a tail.
		for i, s := range dict {
			label := fmt.Sprintf("sign-%02d", i%5)
			if err := st.Add(label, s); err != nil {
				t.Fatal(err)
			}
			if err := db.Add(label, s); err != nil {
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
		for _, frac := range []float64{0, 0.15} {
			st.SetShiftWindowFrac(frac)
			db.SetShiftWindowFrac(frac)
			checkAgainstReference(t, fmt.Sprintf("store round=%d frac=%v", round, frac), st, db, queries)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestLookupStatsAccountForEveryEntry pins the stage accounting: every
// scanned entry ends in exactly one of the four stages, and the spectral
// stage does prune on the adversarial family.
func TestLookupStatsAccountForEveryEntry(t *testing.T) {
	rng := rand.New(rand.NewSource(1903))
	dict, queries := diffFamily(rng)
	_, db := newDiffDB(t)
	for i, s := range dict {
		if err := db.Add(fmt.Sprintf("sign-%02d", i%5), s); err != nil {
			t.Fatal(err)
		}
	}
	sc := sax.NewLookupScratch()
	var buf []sax.Match
	specPruned := 0
	for qi, q := range queries {
		z := q.ZNormalize()
		qw, err := db.Encoder().Encode(z)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{1, 4} {
			if buf, err = db.LookupKZWith(sc, z, qw, k, buf[:0]); err != nil {
				t.Fatal(err)
			}
			st := sc.Stats()
			if st.Entries != len(dict) || st.Entries != st.HistPruned+st.WordPruned+st.SpecPruned+st.ExactEvals {
				t.Fatalf("q=%d k=%d: stats %+v do not partition %d entries", qi, k, st, len(dict))
			}
			specPruned += st.SpecPruned
		}
	}
	if specPruned == 0 {
		t.Fatal("the spectral stage never pruned")
	}
}
