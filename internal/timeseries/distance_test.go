package timeseries

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randSeries(rng *rand.Rand, n int) Series {
	s := make(Series, n)
	for i := range s {
		s[i] = rng.NormFloat64()
	}
	return s
}

func TestEuclideanDist(t *testing.T) {
	d, err := EuclideanDist(Series{0, 0}, Series{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(d, 5, 1e-12) {
		t.Fatalf("dist = %v, want 5", d)
	}
	if _, err := EuclideanDist(Series{1}, Series{1, 2}); err == nil {
		t.Fatal("length mismatch should fail")
	}
}

func TestEuclideanMetricProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		a, b, c := randSeries(rng, 16), randSeries(rng, 16), randSeries(rng, 16)
		dab, _ := EuclideanDist(a, b)
		dba, _ := EuclideanDist(b, a)
		if !almostEq(dab, dba, 1e-9) {
			t.Fatal("not symmetric")
		}
		dac, _ := EuclideanDist(a, c)
		dcb, _ := EuclideanDist(c, b)
		if dab > dac+dcb+1e-9 {
			t.Fatal("triangle inequality violated")
		}
		daa, _ := EuclideanDist(a, a)
		if daa != 0 {
			t.Fatal("identity not zero")
		}
	}
}

func TestMinRotationDistFindsShift(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	a := randSeries(rng, 32)
	for _, k := range []int{0, 1, 5, 16, 31} {
		b := a.Rotate(k)
		d, shift, err := MinRotationDist(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if !almostEq(d, 0, 1e-9) {
			t.Fatalf("rotation by %d: dist %v, want 0", k, d)
		}
		// a[i] must equal b[(i+shift) mod n] = a[(i+shift+k) mod n],
		// so shift ≡ -k (mod n).
		n := len(a)
		if (shift+k)%n != 0 {
			t.Fatalf("rotation by %d: recovered shift %d", k, shift)
		}
	}
}

func TestMinRotationDistUpperBoundedByEuclidean(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := randSeries(rng, 24), randSeries(rng, 24)
		dmin, _, err := MinRotationDist(a, b)
		if err != nil {
			return false
		}
		de, _ := EuclideanDist(a, b)
		return dmin <= de+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestMinRotationDistSymmetry(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := randSeries(rng, 20), randSeries(rng, 20)
		d1, _, _ := MinRotationDist(a, b)
		d2, _, _ := MinRotationDist(b, a)
		return almostEq(d1, d2, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestMinRotationDistErrors(t *testing.T) {
	if _, _, err := MinRotationDist(Series{1}, Series{1, 2}); err == nil {
		t.Fatal("mismatch should fail")
	}
	if _, _, err := MinRotationDist(Series{}, Series{}); err == nil {
		t.Fatal("empty should fail")
	}
}

func TestMinRotationMirrorDist(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randSeries(rng, 16)
	// Mirror of a rotated copy should be found via the mirror path with 0
	// distance.
	b := a.Reverse().Rotate(5)
	d, _, mirrored, err := MinRotationMirrorDist(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(d, 0, 1e-9) {
		t.Fatalf("mirror dist = %v, want 0", d)
	}
	if !mirrored {
		// It is possible (though vanishingly unlikely for random data) that a
		// plain rotation also achieves 0; treat as failure to catch
		// regressions.
		t.Fatal("expected mirrored match")
	}
}

func sq(x float64) float64 { return x * x }

func TestMinRotationDistWindowCutoff(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 100; trial++ {
		a := randSeries(rng, 48)
		b := randSeries(rng, 48)
		for _, win := range []int{-1, 5} {
			exact, shift, err := MinRotationDistWindow(a, b, win)
			if err != nil {
				t.Fatal(err)
			}
			// A cutoff above the true minimum must not change the result bits.
			d, s, err := MinRotationDistWindowCutoff(a, b, win, exact*1.0001)
			if err != nil {
				t.Fatal(err)
			}
			if d != exact || s != shift {
				t.Fatalf("win=%d: cutoff above min changed result: (%v,%d) vs (%v,%d)",
					win, d, s, exact, shift)
			}
			// A cutoff below the true minimum must report no improvement
			// (a value ≥ the cutoff).
			low := exact * 0.9
			d, _, err = MinRotationDistWindowCutoff(a, b, win, low)
			if err != nil {
				t.Fatal(err)
			}
			if d < low {
				t.Fatalf("win=%d: cutoff %v undercut: returned %v", win, low, d)
			}
		}
	}
}

func TestZNormalizeInto(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	s := randSeries(rng, 64)
	want := s.ZNormalize()
	// Undersized, exact and oversized destination buffers.
	for _, buf := range []Series{nil, make(Series, 64), make(Series, 0, 128)} {
		got := s.ZNormalizeInto(buf)
		if len(got) != len(want) {
			t.Fatalf("len = %d", len(got))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("sample %d: %v != %v", i, got[i], want[i])
			}
		}
	}
	// Constant series normalises to zeros here too.
	c := Series{3, 3, 3}
	z := c.ZNormalizeInto(make(Series, 0, 8))
	for _, v := range z {
		if v != 0 {
			t.Fatalf("constant series -> %v", z)
		}
	}
	if got := Series(nil).ZNormalizeInto(make(Series, 4)); len(got) != 0 {
		t.Fatalf("empty series -> len %d", len(got))
	}
}

func TestEuclideanDistShiftedMatchesRotate(t *testing.T) {
	// The in-place shifted distance must agree exactly with materialising
	// the rotation, for positive, negative and out-of-range shifts (the
	// same wrap rule as Series.Rotate).
	rng := rand.New(rand.NewSource(21))
	for _, n := range []int{1, 2, 7, 24} {
		a := randSeries(rng, n)
		b := randSeries(rng, n)
		for _, k := range []int{0, 1, -1, n - 1, n, n + 3, -n, -n - 5, 3 * n} {
			want, err := EuclideanDist(a, b.Rotate(k))
			if err != nil {
				t.Fatal(err)
			}
			got, err := EuclideanDistShifted(a, b, k)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got-want) > 1e-12 {
				t.Fatalf("n=%d k=%d: shifted %v, rotate reference %v", n, k, got, want)
			}
		}
	}
	if _, err := EuclideanDistShifted(randSeries(rng, 4), randSeries(rng, 5), 1); !errors.Is(err, ErrLengthMismatch) {
		t.Fatalf("length mismatch: %v", err)
	}
	if d, err := EuclideanDistShifted(nil, nil, 3); err != nil || d != 0 {
		t.Fatalf("empty series: %v %v", d, err)
	}
}
