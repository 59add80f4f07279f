package server_test

import (
	"context"
	"testing"

	"hdc/internal/pipeline"
	"hdc/internal/sax"
	"hdc/internal/sax/store"
	"hdc/internal/server"
	"hdc/internal/server/client"
	"hdc/internal/timeseries"
)

// TestStatszStore checks that a store-backed service reports the store's
// shape on /statsz — and that without Options.Store the field stays absent.
func TestStatszStore(t *testing.T) {
	enc, err := sax.NewEncoder(16, 5)
	if err != nil {
		t.Fatal(err)
	}
	st := emptyStore(t, enc)
	defer st.Close()
	s := make(timeseries.Series, 128)
	for i := range s {
		s[i] = float64(i % 17)
	}
	for i := 0; i < 3; i++ {
		if err := st.Add("ref", s); err != nil {
			t.Fatal(err)
		}
	}

	_, _, hs := testService(t, server.Options{Store: st}, pipeline.Config{Workers: 1})
	stats, err := client.New(hs.URL, nil).Statsz(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Store == nil {
		t.Fatal("statsz store snapshot missing")
	}
	if stats.Store.Entries != 3 || stats.Store.Tail != 3 {
		t.Fatalf("store snapshot: %+v", stats.Store)
	}

	_, _, plain := testService(t, server.Options{}, pipeline.Config{Workers: 1})
	stats, err = client.New(plain.URL, nil).Statsz(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Store != nil {
		t.Fatalf("store snapshot should be absent, got %+v", stats.Store)
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
