package store

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// format_test.go pins the segment file format byte for byte: a fixed seeded
// build (three builder segments, then a full compaction that folds them and
// a WAL tail into one) must write exactly the files recorded here. A change
// to any block, the histogram block included, changes the digest and needs
// a format version bump.

// segmentDigest is the SHA-256 of every .seg file the seeded build leaves
// after the builder's commit, then of every one left after the compaction,
// each set concatenated in name order.
const segmentDigest = "00fcea01eb5ee4608b6acf60da42a601686cbb8b5c7400e3eb7df1319f6a3ccd"

func TestSegmentFormatPinned(t *testing.T) {
	const n = 64
	rng := rand.New(rand.NewSource(29))
	dir := t.TempDir()
	b, err := NewBuilder(dir, newTestEncoder(t), n, BuilderOptions{MaxSegmentEntries: 7})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := b.AddSeries(fmt.Sprintf("sign-%d", i%4), randSmoothSeries(rng, n)); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	hashSegments(t, dir, h)
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := st.Add(fmt.Sprintf("tail-%d", i%2), randSmoothSeries(rng, n)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.CompactFull(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	hashSegments(t, dir, h)
	if got := hex.EncodeToString(h.Sum(nil)); got != segmentDigest {
		t.Fatalf("segment digest %s, want %s", got, segmentDigest)
	}
}

// hashSegments writes every .seg file in dir, in name order, into h.
func hashSegments(t *testing.T, dir string, h hash.Hash) {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) == 0 {
		t.Fatal("no segment files")
	}
	sort.Strings(segs)
	for _, p := range segs {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(data)
	}
}
