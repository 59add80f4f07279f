package store

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"hdc/internal/sax"
)

// crash_test.go exercises every crash shape the format is designed to
// survive or reject: torn and corrupted logs, truncated and bit-flipped
// segments, manifests pointing at missing files — recovery must either
// repair (torn tail) or fail with the matching typed error, and must never
// panic. Compaction crashes are simulated by failing the injectable rename
// at each atomic-swap point and verifying a reopen recovers every
// acknowledged entry.

// buildCrashStore creates a store with sealed and tail entries, closed and
// ready for mutilation.
func buildCrashStore(t *testing.T, dir string, sealed, tail int) {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	const n = 64
	st, err := create(dir, newTestEncoder(t), n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < sealed; i++ {
		if err := st.Add(fmt.Sprintf("s-%d", i%3), randSmoothSeries(rng, n)); err != nil {
			t.Fatal(err)
		}
	}
	if sealed > 0 {
		if err := st.Compact(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < tail; i++ {
		if err := st.Add("t", randSmoothSeries(rng, n)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// mutate rewrites a byte range of the file in place.
func mutate(t *testing.T, path string, off int64, b []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt(b, off); err != nil {
		t.Fatal(err)
	}
}

func TestRecoverTornWALTail(t *testing.T) {
	for _, cut := range []int64{1, 3, 7} {
		dir := filepath.Join(t.TempDir(), "st")
		buildCrashStore(t, dir, 5, 4)
		wal := filepath.Join(dir, walName)
		fi, err := os.Stat(wal)
		if err != nil {
			t.Fatal(err)
		}
		// Chop mid-record: the interrupted append must vanish, everything
		// before it must survive.
		if err := os.Truncate(wal, fi.Size()-cut); err != nil {
			t.Fatal(err)
		}
		st, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("cut=%d: open after torn tail: %v", cut, err)
		}
		if st.Len() != 8 {
			t.Fatalf("cut=%d: Len = %d, want 8 (lost only the torn append)", cut, st.Len())
		}
		// The log was truncated to the last whole record, so appends and a
		// reopen keep working.
		if err := st.Add("post", randSmoothSeries(rand.New(rand.NewSource(1)), 64)); err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		st, err = Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if st.Len() != 9 {
			t.Fatalf("cut=%d: Len after repair+append = %d, want 9", cut, st.Len())
		}
		st.Close()
	}
}

func TestRecoverWALBitFlipTreatedAsTear(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "st")
	buildCrashStore(t, dir, 0, 6)
	wal := filepath.Join(dir, walName)
	fi, err := os.Stat(wal)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte of the 4th record: recovery keeps the first three
	// and truncates from the flip's record onward.
	recSize := fi.Size() / 6
	mutate(t, wal, 3*recSize+20, []byte{0xff})
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open after log bit flip: %v", err)
	}
	defer st.Close()
	if st.Len() != 3 {
		t.Fatalf("Len = %d, want 3 (records at and after the flip dropped)", st.Len())
	}
}

func TestOpenRejectsTruncatedSegment(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "st")
	buildCrashStore(t, dir, 10, 0)
	seg := filepath.Join(dir, "seg-000001.seg")
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	for _, keep := range []int64{0, 64, 128, fi.Size() / 2, fi.Size() - 1} {
		if err := os.Truncate(seg, keep); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir, Options{}); !errors.Is(err, ErrCorruptSegment) {
			t.Fatalf("keep=%d: err = %v, want ErrCorruptSegment", keep, err)
		}
		// Restore size for the next round (content now zero-padded, which
		// must also be rejected — the header checksum no longer matches).
		if err := os.Truncate(seg, fi.Size()); err != nil {
			t.Fatal(err)
		}
	}
}

func TestOpenRejectsSegmentHeaderCorruption(t *testing.T) {
	cases := []struct {
		name string
		off  int64
		b    []byte
	}{
		{"magic", 0, []byte("XXXXXXXX")},
		{"version", hdrOffVersion, []byte{9}},
		{"count", hdrOffCount, []byte{0xff, 0xff}},
		{"offsets", hdrOffWords, []byte{1}},
		{"filesize", hdrOffFileSize, []byte{1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "st")
			buildCrashStore(t, dir, 8, 0)
			mutate(t, filepath.Join(dir, "seg-000001.seg"), tc.off, tc.b)
			if _, err := Open(dir, Options{}); !errors.Is(err, ErrCorruptSegment) {
				t.Fatalf("err = %v, want ErrCorruptSegment", err)
			}
		})
	}
}

func TestCheckIntegrityCatchesBodyBitFlip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "st")
	buildCrashStore(t, dir, 12, 0)
	seg := filepath.Join(dir, "seg-000001.seg")
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	// A flip deep in the series block passes the structural open checks…
	mutate(t, seg, fi.Size()-9, []byte{0x5a})
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open after body flip: %v", err)
	}
	defer st.Close()
	// …and is caught by the deep verification.
	if err := st.CheckIntegrity(); !errors.Is(err, ErrCorruptSegment) {
		t.Fatalf("CheckIntegrity = %v, want ErrCorruptSegment", err)
	}
}

func TestOpenRejectsWordSymbolCorruption(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "st")
	buildCrashStore(t, dir, 8, 0)
	seg := filepath.Join(dir, "seg-000001.seg")
	// The words block starts right after labelIdx (8×4) and hist (8×6×2)
	// for this fixture; a symbol outside the alphabet must be rejected at
	// open, not panic a later lookup.
	off := int64(segHeaderSize + 8*4 + 8*6*2)
	mutate(t, seg, off, []byte{'z'})
	if _, err := Open(dir, Options{}); !errors.Is(err, ErrCorruptSegment) {
		t.Fatalf("err = %v, want ErrCorruptSegment", err)
	}
}

func TestOpenMissingSegment(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "st")
	buildCrashStore(t, dir, 5, 0)
	if err := os.Remove(filepath.Join(dir, "seg-000001.seg")); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); !errors.Is(err, ErrMissingSegment) {
		t.Fatalf("err = %v, want ErrMissingSegment", err)
	}
}

func TestOpenRejectsManifestDamage(t *testing.T) {
	cases := []struct {
		name    string
		content string
	}{
		{"garbage", "not json at all"},
		{"wrong-version", `{"version":7,"word_len":16,"alphabet":6,"series_len":64,"next_seq":1,"next_seg_id":1,"segments":[]}`},
		{"bad-params", `{"version":2,"word_len":0,"alphabet":6,"series_len":64,"next_seq":1,"next_seg_id":1,"segments":[]}`},
		{"seq-gap", `{"version":2,"word_len":16,"alphabet":6,"series_len":64,"next_seq":9,"next_seg_id":2,"segments":[{"file":"seg-000001.seg","entries":5,"base_seq":3,"crc":0}]}`},
		{"path-escape", `{"version":2,"word_len":16,"alphabet":6,"series_len":64,"next_seq":6,"next_seg_id":2,"segments":[{"file":"../seg-000001.seg","entries":5,"base_seq":1,"crc":0}]}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "st")
			buildCrashStore(t, dir, 5, 0)
			if err := os.WriteFile(filepath.Join(dir, manifestName), []byte(tc.content), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := Open(dir, Options{}); !errors.Is(err, ErrCorruptManifest) {
				t.Fatalf("err = %v, want ErrCorruptManifest", err)
			}
		})
	}
}

// TestCompactionCrashRecovery fails the injected rename at each atomic-swap
// point of a compaction, then reopens the directory: every acknowledged
// entry must survive, exactly once, regardless of which step "crashed".
func TestCompactionCrashRecovery(t *testing.T) {
	const n = 64
	// Renames per compaction: 1 = segment seal, 2 = manifest swap (the
	// commit point), 3 = log rewrite.
	for failAt := 1; failAt <= 3; failAt++ {
		t.Run(fmt.Sprintf("failAt=%d", failAt), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(failAt)))
			dir := filepath.Join(t.TempDir(), "st")
			st, db := buildPair(t, rng, dir, 20, n, Options{})
			calls := 0
			st.renameFn = func(old, new string) error {
				calls++
				if calls == failAt {
					if failAt == 3 {
						// Crash AFTER the swap took effect: the new file is
						// in place but the "process" dies before learning it.
						_ = os.Rename(old, new)
					}
					return errors.New("injected crash")
				}
				return os.Rename(old, new)
			}
			if err := st.Compact(); err == nil {
				t.Fatal("compaction with injected crash must report the failure")
			}
			// Past the commit point the store refuses writes; before it, it
			// keeps working — either way, a reopen must recover everything.
			_ = st.Close()
			st2, err := Open(dir, Options{})
			if err != nil {
				t.Fatalf("reopen after crashed compaction: %v", err)
			}
			defer st2.Close()
			if st2.Len() != 20 {
				t.Fatalf("Len after recovery = %d, want 20", st2.Len())
			}
			checkEquivalence(t, "recovered", st2, db, rng, n)
			// The recovered store compacts cleanly.
			if err := st2.Compact(); err != nil {
				t.Fatal(err)
			}
			if st2.Stats().Tail != 0 {
				t.Fatal("tail not sealed after recovery compaction")
			}
			checkEquivalence(t, "recovered+compacted", st2, db, rng, n)
		})
	}
}

// TestConcurrentAddLookupCompact drives appends, lookups and compactions in
// parallel under the race detector.
func TestConcurrentAddLookupCompact(t *testing.T) {
	const n = 64
	rng := rand.New(rand.NewSource(8))
	dir := filepath.Join(t.TempDir(), "st")
	st, err := create(dir, newTestEncoder(t), n, Options{CompactEvery: 16})
	if err != nil {
		t.Fatal(err)
	}
	// Pre-generate queries; rand.Rand is not goroutine-safe.
	queries := make([]struct {
		z  []float64
		qw sax.Word
	}, 8)
	for i := range queries {
		z := randSmoothSeries(rng, n).ZNormalize()
		qw, err := st.Encoder().Encode(z)
		if err != nil {
			t.Fatal(err)
		}
		queries[i].z = z
		queries[i].qw = qw
	}
	adds := make([][]float64, 200)
	for i := range adds {
		adds[i] = randSmoothSeries(rng, n)
	}

	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i, s := range adds {
			if err := st.Add(fmt.Sprintf("c-%d", i%5), s); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		sc := sax.NewLookupScratch()
		var buf []sax.Match
		for i := 0; i < 400; i++ {
			q := queries[i%len(queries)]
			var err error
			buf, err = st.LookupKZWith(sc, q.z, q.qw, 3, buf[:0])
			if err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			if err := st.Compact(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	if st.Len() != 200 {
		t.Fatalf("Len = %d, want 200", st.Len())
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.Len() != 200 {
		t.Fatalf("Len after reopen = %d, want 200", st2.Len())
	}
}
