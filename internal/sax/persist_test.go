package sax

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	db := newTestDB(t)
	db.SetShiftWindowFrac(0.2)
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != db.Len() {
		t.Fatalf("entries %d != %d", loaded.Len(), db.Len())
	}
	if loaded.SeriesLen() != db.SeriesLen() {
		t.Fatal("series length not preserved")
	}
	if loaded.Encoder().Segments() != db.Encoder().Segments() ||
		loaded.Encoder().AlphabetSize() != db.Encoder().AlphabetSize() {
		t.Fatal("encoder parameters not preserved")
	}
	// The loaded database classifies identically.
	for _, kind := range []string{"two-lobe", "three-lobe", "spike"} {
		q := shapeSignature(kind, 128, 0.7, 0, nil)
		m1, err1 := db.Lookup(q, math.Inf(1))
		m2, err2 := loaded.Lookup(q, math.Inf(1))
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("%s: lookup errors diverge: %v vs %v", kind, err1, err2)
		}
		if m1.Label != m2.Label {
			t.Fatalf("%s: labels diverge: %s vs %s", kind, m1.Label, m2.Label)
		}
		if math.Abs(m1.Dist-m2.Dist) > 1e-9 {
			t.Fatalf("%s: distances diverge: %v vs %v", kind, m1.Dist, m2.Dist)
		}
	}
}

func TestLoadRejectsCorruption(t *testing.T) {
	db := newTestDB(t)
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.String()

	tests := []struct {
		name   string
		mutate func(string) string
	}{
		{"garbage", func(s string) string { return "not json" }},
		{"bad version", func(s string) string { return strings.Replace(s, `"version": 1`, `"version": 99`, 1) }},
		{"tampered word", func(s string) string {
			// Flip a stored word so it no longer matches its series.
			i := strings.Index(s, `"word": "`)
			return s[:i+10] + "zz" + s[i+12:]
		}},
		{"empty entries", func(s string) string {
			i := strings.Index(s, `"entries"`)
			return s[:i] + `"entries": []}` // truncate
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Load(strings.NewReader(tt.mutate(good))); err == nil {
				t.Fatal("corrupted input should fail to load")
			}
		})
	}
}

func TestSaveIsStable(t *testing.T) {
	db := newTestDB(t)
	var a, b bytes.Buffer
	if err := db.Save(&a); err != nil {
		t.Fatal(err)
	}
	if err := db.Save(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("Save output is not deterministic")
	}
}

// TestSaveInsertionOrder pins the file's entry order to Add order, with
// labels interleaved so neither label order nor any label-keyed layout can
// pass by accident, and checks Save → Load → Save reproduces the file byte
// for byte.
func TestSaveInsertionOrder(t *testing.T) {
	enc, err := NewEncoder(16, 6)
	if err != nil {
		t.Fatal(err)
	}
	db, err := NewDatabase(enc, 128)
	if err != nil {
		t.Fatal(err)
	}
	db.SetShiftWindowFrac(0.2)
	labels := []string{"zulu", "alpha", "mike", "alpha", "zulu", "bravo", "mike", "alpha", "yankee", "bravo"}
	kinds := []string{"two-lobe", "three-lobe", "spike"}
	var want []entryFile
	for i, label := range labels {
		s := shapeSignature(kinds[i%len(kinds)], 128, 0.3*float64(i), 0, nil)
		if err := db.Add(label, s); err != nil {
			t.Fatal(err)
		}
		w, err := enc.Encode(s.ZNormalize())
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, entryFile{Label: label, Word: w.Symbols})
	}

	var first bytes.Buffer
	if err := db.Save(&first); err != nil {
		t.Fatal(err)
	}
	var file struct {
		Entries []entryFile `json:"entries"`
	}
	if err := json.Unmarshal(first.Bytes(), &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Entries) != len(want) {
		t.Fatalf("saved %d entries, want %d", len(file.Entries), len(want))
	}
	for i, e := range file.Entries {
		if e.Label != want[i].Label || e.Word != want[i].Word {
			t.Fatalf("entry %d saved as (%s, %s), want Add order (%s, %s)",
				i, e.Label, e.Word, want[i].Label, want[i].Word)
		}
	}

	loaded, err := Load(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var second bytes.Buffer
	if err := loaded.Save(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("Save → Load → Save changed the file:\n%s\nvs\n%s", first.String(), second.String())
	}
}
