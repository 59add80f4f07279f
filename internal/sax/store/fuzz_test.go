package store

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// fuzz_test.go hardens the segment decoder: whatever bytes an attacker, a
// failing disk or a crashed writer leaves in a .seg file, decoding must
// return a typed error or a fully usable segment — never panic, never hand
// out a view that faults later. The checked-in seed corpus
// (testdata/fuzz/FuzzSegmentDecode) covers the interesting shapes: a valid
// segment, truncations at every structural boundary, and bit flips in each
// block; `go test -fuzz=FuzzSegmentDecode` explores from there.

// fuzzParams are the store parameters every fuzz input is decoded against
// (they must match the corpus generator below).
var fuzzParams = segParams{wordLen: 4, alphabet: 4, seriesLen: 8}

// buildFuzzSegment writes a small valid segment and returns its bytes.
func buildFuzzSegment(tb testing.TB) []byte {
	tb.Helper()
	rng := rand.New(rand.NewSource(1))
	acc := accum{}
	for i := 0; i < 5; i++ {
		z := randSmoothSeries(rng, fuzzParams.seriesLen).ZNormalize()
		word := make([]byte, fuzzParams.wordLen)
		for j := range word {
			word[j] = byte('a' + (i+j)%fuzzParams.alphabet)
		}
		acc.labels = append(acc.labels, fmt.Sprintf("l%d", i%2))
		acc.words = append(acc.words, string(word))
		acc.series = append(acc.series, z)
	}
	path := filepath.Join(tb.TempDir(), "seed.seg")
	if _, err := writeSegment(path, fuzzParams, 1, &acc); err != nil {
		tb.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// decodeFuzzInput runs the decoder over arbitrary bytes (copied into an
// 8-byte-aligned buffer, as a mapping would be) and, when decoding succeeds,
// walks every accessor the lookup path uses.
func decodeFuzzInput(data []byte) {
	if len(data) < segHeaderSize {
		return
	}
	buf := make([]uint64, (len(data)+7)/8)
	aligned := unsafeBytes(buf)[:len(data)]
	copy(aligned, data)
	sg, err := decodeSegment("fuzz.seg", mapped{data: aligned}, fuzzParams, uint64(len(aligned)))
	if err != nil {
		return
	}
	var sink float64
	for i := 0; i < sg.count; i++ {
		_ = sg.label(i)
		_ = sg.word(i)
		for _, v := range sg.seriesAt(i) {
			sink += v
		}
	}
	_ = sg.checkIntegrity()
	_ = sink
}

func FuzzSegmentDecode(f *testing.F) {
	valid := buildFuzzSegment(f)
	f.Add(valid)
	f.Add([]byte{})
	f.Add(valid[:segHeaderSize])
	f.Add(valid[:len(valid)-3])
	for _, off := range []int{hdrOffCount, hdrOffSeries, segHeaderSize + 10, len(valid) - 5} {
		flipped := append([]byte(nil), valid...)
		flipped[off] ^= 0x40
		f.Add(flipped)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		decodeFuzzInput(data)
	})
}

// TestWriteFuzzCorpus regenerates the checked-in seed corpus when
// STORE_WRITE_FUZZ_CORPUS is set (a no-op otherwise). The committed files
// let CI's short fuzz smoke start from the structured shapes immediately.
func TestWriteFuzzCorpus(t *testing.T) {
	if os.Getenv("STORE_WRITE_FUZZ_CORPUS") == "" {
		t.Skip("set STORE_WRITE_FUZZ_CORPUS=1 to regenerate testdata/fuzz")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzSegmentDecode")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	valid := buildFuzzSegment(t)
	seeds := map[string][]byte{
		"seed_valid":        valid,
		"seed_header_only":  valid[:segHeaderSize],
		"seed_torn_tail":    valid[:len(valid)-3],
		"seed_count_flip":   flipAt(valid, hdrOffCount),
		"seed_offset_flip":  flipAt(valid, hdrOffSeries),
		"seed_body_flip":    flipAt(valid, segHeaderSize+10),
		"seed_series_flip":  flipAt(valid, len(valid)-5),
		"seed_magic_garble": flipAt(valid, 0),
	}
	for name, b := range seeds {
		content := "go test fuzz v1\n[]byte(" + strconv.Quote(string(b)) + ")\n"
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// flipAt returns a copy of b with one bit toggled at off.
func flipAt(b []byte, off int) []byte {
	c := append([]byte(nil), b...)
	c[off] ^= 0x40
	return c
}
