package recognizer

import (
	"bytes"
	"math"
	"testing"

	"hdc/internal/body"
	"hdc/internal/sax"
	"hdc/internal/sax/store"
	"hdc/internal/scene"
)

// TestUseDictionaryStoreMatchesInMemory runs the full ground-station →
// drone deployment path: build references in memory, save them as v1 JSON,
// convert to a store directory, and recognise through the mapped store. The
// store-backed recognizer must produce bit-identical decisions.
func TestUseDictionaryStoreMatchesInMemory(t *testing.T) {
	memRec, rend := newCalibrated(t)

	var buf bytes.Buffer
	if err := memRec.SaveReferences(&buf); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir() + "/store"
	if n, err := store.ConvertV1(&buf, dir, store.BuilderOptions{}); err != nil {
		t.Fatal(err)
	} else if n != memRec.Database().Len() {
		t.Fatalf("converted %d entries, want %d", n, memRec.Database().Len())
	}

	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	stRec, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := stRec.UseDictionary(st); err != nil {
		t.Fatal(err)
	}
	if stRec.Database() != nil {
		t.Fatal("Database() should be nil once an external dictionary is installed")
	}
	if stRec.Dictionary() != sax.Dictionary(st) {
		t.Fatal("Dictionary() should report the installed store")
	}
	if err := stRec.SaveReferences(&bytes.Buffer{}); err == nil {
		t.Fatal("SaveReferences should refuse a store-backed recognizer")
	}

	for _, s := range body.AllSigns() {
		for _, az := range []float64{0, 25, -40, 65} {
			v := scene.ReferenceView()
			v.AzimuthDeg += az
			memRes, memErr := memRec.RecognizeView(rend, s, v, body.Options{}, nil)
			stRes, stErr := stRec.RecognizeView(rend, s, v, body.Options{}, nil)
			if (memErr == nil) != (stErr == nil) {
				t.Fatalf("%v @ %v°: err mismatch mem=%v store=%v", s, az, memErr, stErr)
			}
			if memRes.OK != stRes.OK || memRes.Label != stRes.Label ||
				math.Float64bits(memRes.Match.Dist) != math.Float64bits(stRes.Match.Dist) ||
				math.Float64bits(memRes.Confidence) != math.Float64bits(stRes.Confidence) {
				t.Fatalf("%v @ %v°: mem=%+v store=%+v", s, az, memRes.Match, stRes.Match)
			}
		}
	}
}

// TestUseDictionaryValidation checks the parameter cross-check and the
// nil guard.
func TestUseDictionaryValidation(t *testing.T) {
	rec, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.UseDictionary(nil); err == nil {
		t.Fatal("nil dictionary should be rejected")
	}
	enc, err := sax.NewEncoder(8, 4) // differs from the default 16/5
	if err != nil {
		t.Fatal(err)
	}
	st := emptyStore(t, enc)
	defer st.Close()
	if err := rec.UseDictionary(st); err == nil {
		t.Fatal("mismatched dictionary parameters should be rejected")
	}
}

// emptyStore creates an empty store under t's temp dir through the bulk
// builder and opens it.
func emptyStore(t *testing.T, enc *sax.Encoder) *store.Store {
	t.Helper()
	dir := t.TempDir() + "/s"
	b, err := store.NewBuilder(dir, enc, 128, store.BuilderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return st
}
