package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"hdc/internal/sax/store"
)

// store.go is signdb's store-directory half: converting the v1 JSON artefact
// into the segmented mmap format, and compacting/inspecting/verifying store
// directories in place.

// isStoreDir reports whether path is a store directory (has a manifest).
func isStoreDir(path string) bool {
	_, err := os.Stat(filepath.Join(path, "MANIFEST.json"))
	return err == nil
}

// runConvert streams a v1 JSON database into a fresh store directory.
func runConvert(in, dir string, stdout io.Writer) error {
	f, err := os.Open(in)
	if err != nil {
		return err
	}
	defer f.Close()
	n, err := store.ConvertV1(f, dir, store.BuilderOptions{})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "converted %d entries from %s into store %s\n", n, in, dir)
	return nil
}

// runCompact folds the WAL tail into sealed segments (with -full, also
// merges every sealed segment into one).
func runCompact(dir string, full bool, stdout io.Writer) error {
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return err
	}
	defer st.Close()
	before := st.Stats()
	if full {
		err = st.CompactFull()
	} else {
		err = st.Compact()
	}
	if err != nil {
		return err
	}
	after := st.Stats()
	fmt.Fprintf(stdout, "compacted %s: %d tail entries folded, %d → %d segments, wal %d → %d bytes\n",
		dir, before.Tail, len(before.Segments), len(after.Segments), before.WALBytes, after.WALBytes)
	return nil
}

// runStats prints the store's stats as indented JSON (the same shape the
// server reports under /statsz "store").
func runStats(dir string, stdout io.Writer) error {
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return err
	}
	defer st.Close()
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(st.Stats())
}

// runInspectStore prints a store directory's physical layout: per-segment
// occupancy, the WAL backlog, and how much of the dictionary is served from
// mapped segments, the "prune index" line (tail entries live on the heap,
// so coverage below 1.0 means a compaction is due).
func runInspectStore(dir string, stdout io.Writer) error {
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return err
	}
	defer st.Close()
	if err := st.CheckIntegrity(); err != nil {
		return err
	}
	s := st.Stats()
	enc := st.Encoder()
	fmt.Fprintf(stdout, "store: %d entries, word length %d, alphabet %d, series length %d\n",
		s.Entries, enc.Segments(), enc.AlphabetSize(), st.SeriesLen())
	fmt.Fprintf(stdout, "segments (%d, integrity ok):\n", len(s.Segments))
	for _, sg := range s.Segments {
		fmt.Fprintf(stdout, "  %-14s %8d entries  %4d labels  seq %8d+  %10d bytes\n",
			sg.File, sg.Entries, sg.Labels, sg.BaseSeq, sg.Bytes)
	}
	fmt.Fprintf(stdout, "wal: %d entries pending, %d bytes\n", s.Tail, s.WALBytes)
	coverage := 1.0
	if s.Entries > 0 {
		coverage = float64(s.Sealed) / float64(s.Entries)
	}
	fmt.Fprintf(stdout, "prune index: %.1f%% of entries served from mapped segments\n", 100*coverage)
	if s.LastCompactErr != "" {
		fmt.Fprintf(stdout, "last compaction error: %s\n", s.LastCompactErr)
	}
	fmt.Fprintf(stdout, "disk: %d bytes in %s\n", s.DiskBytes, dir)
	return nil
}

// runVerifyStore self-classifies every sign through a store-backed
// recogniser — the same check runVerify does for JSON files.
func runVerifyStore(dir string, stdout io.Writer) error {
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return err
	}
	defer st.Close()
	if err := st.CheckIntegrity(); err != nil {
		return err
	}
	rec, err := newRecognizer(false)
	if err != nil {
		return err
	}
	if err := rec.UseDictionary(st); err != nil {
		return err
	}
	return selfClassify(rec, stdout)
}
