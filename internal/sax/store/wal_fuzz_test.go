package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// wal_fuzz_test.go hardens log recovery: whatever bytes a crash or a failing
// disk leaves in wal.log, replayWAL must return the records before the
// first torn or scribbled one, or an error wrapping ErrCorruptWAL — never
// panic — and the truncation it performs must leave a log that replays to
// the same records.

// buildFuzzWAL writes a log of three records at fuzzParams and returns its
// bytes.
func buildFuzzWAL(tb testing.TB) []byte {
	tb.Helper()
	dir := tb.TempDir()
	w, err := openWAL(dir, false)
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 3; i++ {
		z := randSmoothSeries(rng, fuzzParams.seriesLen).ZNormalize()
		if err := w.append(uint64(i+1), fmt.Sprintf("l%d", i), "abcd", z); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.close(); err != nil {
		tb.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// walRecordBytes frames payload as one checksum-valid log record.
func walRecordBytes(payload []byte) []byte {
	b := make([]byte, 8, 8+len(payload))
	binary.LittleEndian.PutUint32(b[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[4:], crc32.ChecksumIEEE(payload))
	return append(b, payload...)
}

func FuzzWALRecord(f *testing.F) {
	valid := buildFuzzWAL(f)
	f.Add(valid, uint8(0))
	f.Add(valid, uint8(2))
	f.Add([]byte{}, uint8(0))
	f.Add(valid[:len(valid)-5], uint8(0))
	f.Add(valid[:7], uint8(0))
	f.Add(flipAt(valid, 4), uint8(0))
	f.Add(flipAt(valid, len(valid)/2), uint8(0))
	// Checksum-valid records that break the structure: an empty label, a
	// symbol outside the alphabet, a size that disagrees with the store.
	emptyLabel := make([]byte, 12+fuzzParams.wordLen+8*fuzzParams.seriesLen)
	f.Add(walRecordBytes(emptyLabel), uint8(0))
	badSymbol := append(append([]byte{}, valid[8:8+12+2]...), "abcz"...)
	badSymbol = append(badSymbol, make([]byte, 8*fuzzParams.seriesLen)...)
	f.Add(append(append([]byte{}, valid...), walRecordBytes(badSymbol)...), uint8(0))
	f.Add(walRecordBytes(valid[8:20]), uint8(0))
	// A repeated record: sequence numbers must increase.
	first := int(binary.LittleEndian.Uint32(valid)) + 8
	f.Add(append(append([]byte{}, valid...), valid[:first]...), uint8(0))

	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte, skip uint8) {
		path := filepath.Join(dir, walName)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		recs, n, err := replayWAL(dir, fuzzParams, uint64(skip))
		if err != nil {
			if !errors.Is(err, ErrCorruptWAL) {
				t.Fatalf("replay error %v does not wrap ErrCorruptWAL", err)
			}
			if _, _, err2 := replayWAL(dir, fuzzParams, uint64(skip)); err2 == nil || err2.Error() != err.Error() {
				t.Fatalf("second replay of a corrupt log: %v, first %v", err2, err)
			}
			return
		}
		if n < 0 || n > int64(len(data)) {
			t.Fatalf("replayed length %d of a %d-byte log", n, len(data))
		}
		for i, r := range recs {
			if r.seq < uint64(skip) || (i > 0 && r.seq <= recs[i-1].seq) {
				t.Fatalf("record %d seq %d out of order (skip %d)", i, r.seq, skip)
			}
			if r.label == "" || len(r.word) != fuzzParams.wordLen || len(r.series) != fuzzParams.seriesLen {
				t.Fatalf("record %d malformed: %+v", i, r)
			}
		}
		if fi, err := os.Stat(path); err != nil || fi.Size() != n {
			t.Fatalf("log left at %v bytes (%v), replay reported %d", fi.Size(), err, n)
		}
		recs2, n2, err := replayWAL(dir, fuzzParams, uint64(skip))
		if err != nil {
			t.Fatalf("second replay: %v", err)
		}
		if n2 != n || !sameRecords(recs, recs2) {
			t.Fatalf("second replay: %d records, %d bytes; first %d records, %d bytes", len(recs2), n2, len(recs), n)
		}
	})
}

// sameRecords compares two replays, series by their bits.
func sameRecords(a, b []walRecord) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].seq != b[i].seq || a[i].label != b[i].label || a[i].word != b[i].word || len(a[i].series) != len(b[i].series) {
			return false
		}
		for j, v := range a[i].series {
			if math.Float64bits(v) != math.Float64bits(b[i].series[j]) {
				return false
			}
		}
	}
	return true
}
