package timeseries

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanStd(t *testing.T) {
	tests := []struct {
		name     string
		s        Series
		mean, sd float64
	}{
		{"empty", nil, 0, 0},
		{"single", Series{5}, 5, 0},
		{"constant", Series{2, 2, 2, 2}, 2, 0},
		{"simple", Series{1, 2, 3, 4}, 2.5, math.Sqrt(1.25)},
		{"negatives", Series{-1, 1}, 0, 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.s.Mean(); !almostEq(got, tt.mean, 1e-12) {
				t.Errorf("Mean = %v, want %v", got, tt.mean)
			}
			if got := tt.s.Std(); !almostEq(got, tt.sd, 1e-12) {
				t.Errorf("Std = %v, want %v", got, tt.sd)
			}
		})
	}
}

func TestMinMax(t *testing.T) {
	lo, hi := Series{3, -1, 7, 0}.MinMax()
	if lo != -1 || hi != 7 {
		t.Fatalf("MinMax = (%v,%v), want (-1,7)", lo, hi)
	}
	lo, hi = Series(nil).MinMax()
	if lo != 0 || hi != 0 {
		t.Fatalf("empty MinMax = (%v,%v), want (0,0)", lo, hi)
	}
}

func TestZNormalizeProperties(t *testing.T) {
	f := func(raw []float64) bool {
		// Filter out NaN/Inf inputs and degenerate sizes.
		s := make(Series, 0, len(raw))
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
				return true
			}
			s = append(s, v)
		}
		if len(s) < 2 {
			return true
		}
		z := s.ZNormalize()
		if len(z) != len(s) {
			return false
		}
		if s.Std() < 1e-9 {
			// Constant series → all zeros.
			for _, v := range z {
				if v != 0 {
					return false
				}
			}
			return true
		}
		return almostEq(z.Mean(), 0, 1e-6) && almostEq(z.Std(), 1, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestZNormalizeConstant(t *testing.T) {
	z := Series{3, 3, 3}.ZNormalize()
	for _, v := range z {
		if v != 0 {
			t.Fatalf("constant series should z-normalise to zeros, got %v", z)
		}
	}
}

func TestZNormalizeScaleInvariance(t *testing.T) {
	// The core paper property: scaling a signature (altitude change) must not
	// change its z-normalised form.
	rng := rand.New(rand.NewSource(1))
	s := make(Series, 64)
	for i := range s {
		s[i] = rng.NormFloat64()
	}
	scaled := make(Series, len(s))
	for i, v := range s {
		scaled[i] = 4.2*v + 17
	}
	z1, z2 := s.ZNormalize(), scaled.ZNormalize()
	for i := range z1 {
		if !almostEq(z1[i], z2[i], 1e-9) {
			t.Fatalf("z-norm not affine invariant at %d: %v vs %v", i, z1[i], z2[i])
		}
	}
}

func TestPAADivisible(t *testing.T) {
	s := Series{1, 1, 2, 2, 3, 3}
	p, err := s.PAA(3)
	if err != nil {
		t.Fatal(err)
	}
	want := Series{1, 2, 3}
	for i := range want {
		if !almostEq(p[i], want[i], 1e-12) {
			t.Fatalf("PAA = %v, want %v", p, want)
		}
	}
}

func TestPAANonDivisible(t *testing.T) {
	s := Series{1, 2, 3, 4, 5}
	p, err := s.PAA(2)
	if err != nil {
		t.Fatal(err)
	}
	// Segment 1 covers samples [0,2.5): 1,2 and half of 3 → (1+2+1.5)/2.5 = 1.8
	// Segment 2 covers [2.5,5): half of 3, 4, 5 → (1.5+4+5)/2.5 = 4.2
	if !almostEq(p[0], 1.8, 1e-9) || !almostEq(p[1], 4.2, 1e-9) {
		t.Fatalf("fractional PAA = %v, want [1.8 4.2]", p)
	}
}

func TestPAAErrors(t *testing.T) {
	if _, err := (Series{}).PAA(1); err == nil {
		t.Error("empty PAA should fail")
	}
	if _, err := (Series{1, 2}).PAA(0); err == nil {
		t.Error("zero segments should fail")
	}
	if _, err := (Series{1, 2}).PAA(3); err == nil {
		t.Error("more segments than samples should fail")
	}
}

func TestPAAPreservesMean(t *testing.T) {
	// PAA of a z-normalised series has (weighted) mean ≈ 0; for divisible
	// lengths the plain mean is preserved exactly.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := make(Series, 64)
		for i := range s {
			s[i] = rng.NormFloat64() * 10
		}
		p, err := s.PAA(8)
		if err != nil {
			return false
		}
		return almostEq(p.Mean(), s.Mean(), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPAAIdentity(t *testing.T) {
	s := Series{4, 8, 15, 16, 23, 42}
	p, err := s.PAA(len(s))
	if err != nil {
		t.Fatal(err)
	}
	for i := range s {
		if !almostEq(p[i], s[i], 1e-12) {
			t.Fatalf("PAA(n) should be identity, got %v", p)
		}
	}
}

func TestResampleLinear(t *testing.T) {
	s := Series{0, 10}
	r, err := s.ResampleLinear(5)
	if err != nil {
		t.Fatal(err)
	}
	want := Series{0, 2.5, 5, 7.5, 10}
	for i := range want {
		if !almostEq(r[i], want[i], 1e-9) {
			t.Fatalf("Resample = %v, want %v", r, want)
		}
	}
	// Endpoints always preserved.
	s2 := Series{3, 1, 4, 1, 5, 9, 2, 6}
	r2, err := s2.ResampleLinear(31)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(r2[0], 3, 1e-12) || !almostEq(r2[len(r2)-1], 6, 1e-12) {
		t.Fatalf("endpoints not preserved: %v ... %v", r2[0], r2[len(r2)-1])
	}
}

func TestResampleDegenerate(t *testing.T) {
	if _, err := (Series{}).ResampleLinear(4); err == nil {
		t.Error("empty resample should fail")
	}
	if _, err := (Series{1}).ResampleLinear(0); err == nil {
		t.Error("resample to 0 should fail")
	}
	r, err := (Series{7}).ResampleLinear(3)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range r {
		if v != 7 {
			t.Fatalf("constant expand failed: %v", r)
		}
	}
}

func TestRotate(t *testing.T) {
	s := Series{1, 2, 3, 4}
	tests := []struct {
		k    int
		want Series
	}{
		{0, Series{1, 2, 3, 4}},
		{1, Series{2, 3, 4, 1}},
		{4, Series{1, 2, 3, 4}},
		{-1, Series{4, 1, 2, 3}},
		{5, Series{2, 3, 4, 1}},
	}
	for _, tt := range tests {
		got := s.Rotate(tt.k)
		for i := range tt.want {
			if got[i] != tt.want[i] {
				t.Fatalf("Rotate(%d) = %v, want %v", tt.k, got, tt.want)
			}
		}
	}
}

func TestRotateRoundTrip(t *testing.T) {
	f := func(seed int64, k int) bool {
		rng := rand.New(rand.NewSource(seed))
		s := make(Series, 17)
		for i := range s {
			s[i] = rng.Float64()
		}
		back := s.Rotate(k).Rotate(-k)
		for i := range s {
			if s[i] != back[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestReverse(t *testing.T) {
	s := Series{1, 2, 3}
	r := s.Reverse()
	if r[0] != 3 || r[1] != 2 || r[2] != 1 {
		t.Fatalf("Reverse = %v", r)
	}
	rr := r.Reverse()
	for i := range s {
		if rr[i] != s[i] {
			t.Fatal("double reverse is not identity")
		}
	}
}

func TestClone(t *testing.T) {
	s := Series{1, 2}
	c := s.Clone()
	c[0] = 99
	if s[0] != 1 {
		t.Fatal("Clone aliases memory")
	}
	if Series(nil).Clone() != nil {
		t.Fatal("nil Clone should be nil")
	}
}

// Reverse returns s in reverse order: the mirror the rotation aligner matches
// by index arithmetic.
func (s Series) Reverse() Series {
	out := make(Series, len(s))
	for i, v := range s {
		out[len(s)-1-i] = v
	}
	return out
}
