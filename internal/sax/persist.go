package sax

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"hdc/internal/timeseries"
)

// persist.go serialises the reference database so a deployment can build
// the sign dictionary once (on the ground station) and ship it to drones —
// the "database of strings" of §IV as an artefact.
//
// The JSON format here is version 1; the segmented binary store under
// internal/sax/store is the version-2 format for dictionaries too large to
// re-parse on every replica restart. DecodeV1 is the shared streaming import
// path: Load uses it to fill an in-memory Database, the store's ConvertV1
// uses it to feed a segment builder, both in O(one entry) memory.

// entryFile is the on-disk representation of one entry.
type entryFile struct {
	Label  string    `json:"label"`
	Word   string    `json:"word"`
	Series []float64 `json:"series"`
}

// currentVersion of the JSON file format.
const currentVersion = 1

// saveIndentMax is the largest entry count Save still pretty-prints.
// Indented output is pleasant to diff for hand-tended reference sets; above
// this size the file is a bulk artefact and indentation would roughly double
// its bytes for no reader's benefit.
const saveIndentMax = 4096

// V1Header carries the header fields of a version-1 JSON database file, in
// the order Save writes them (before the entries array).
type V1Header struct {
	Segments  int
	Alphabet  int
	SeriesLen int
	ShiftFrac float64
}

// Save writes the database (encoder parameters + every entry) as version-1
// JSON. Entries are written in insertion order from a point-in-time
// snapshot of the entry slice (no copy of the dictionary is materialised),
// so Load re-adds them in the same order. Files up to saveIndentMax entries
// are indented; larger ones are compact, so saving 10⁶ entries buffers one
// entry at a time instead of triple-buffering the dictionary.
func (db *Database) Save(w io.Writer) error {
	db.mu.RLock()
	shiftFrac, entries := db.shiftFrac, db.entries
	db.mu.RUnlock()

	bw := bufio.NewWriter(w)
	indent := len(entries) <= saveIndentMax
	if indent {
		fmt.Fprintf(bw, "{\n  \"version\": %d,\n  \"segments\": %d,\n  \"alphabet\": %d,\n  \"series_len\": %d,\n",
			currentVersion, db.enc.Segments(), db.enc.AlphabetSize(), db.n)
		if shiftFrac > 0 {
			if err := writeJSONField(bw, "  ", "shift_frac", shiftFrac); err != nil {
				return err
			}
		}
		fmt.Fprint(bw, "  \"entries\": [")
	} else {
		fmt.Fprintf(bw, "{\"version\":%d,\"segments\":%d,\"alphabet\":%d,\"series_len\":%d,",
			currentVersion, db.enc.Segments(), db.enc.AlphabetSize(), db.n)
		if shiftFrac > 0 {
			if err := writeJSONField(bw, "", "shift_frac", shiftFrac); err != nil {
				return err
			}
		}
		fmt.Fprint(bw, "\"entries\":[")
	}

	for i := range entries {
		e := &entries[i]
		ef := entryFile{Label: e.Label, Word: e.Word.Symbols, Series: e.Series}
		var b []byte
		var err error
		if indent {
			b, err = json.MarshalIndent(ef, "    ", "  ")
		} else {
			b, err = json.Marshal(ef)
		}
		if err != nil {
			return err
		}
		if i > 0 {
			bw.WriteByte(',')
		}
		if indent {
			bw.WriteString("\n    ")
		}
		if _, err := bw.Write(b); err != nil {
			return err
		}
	}
	if indent {
		if len(entries) > 0 {
			bw.WriteString("\n  ")
		}
		bw.WriteString("]\n}\n")
	} else {
		bw.WriteString("]}\n")
	}
	return bw.Flush()
}

// writeJSONField emits one "key": value pair (plus trailing comma) with the
// value marshalled exactly as encoding/json would.
func writeJSONField(w *bufio.Writer, pad, key string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if pad == "" {
		fmt.Fprintf(w, "%q:%s,", key, b)
	} else {
		fmt.Fprintf(w, "%s%q: %s,\n", pad, key, b)
	}
	return nil
}

// DecodeV1 stream-decodes a version-1 JSON database: onHeader is called once
// with the validated header fields (which Save always writes before the
// entries array), then emit is called for each entry in insertion order with
// its verified word (every stored word is re-derived from its series, so a
// corrupted file fails loudly rather than matching wrongly). Memory use is
// O(one entry) regardless of file size — the v1 import path for both Load
// and the on-disk store's converter.
func DecodeV1(r io.Reader, onHeader func(V1Header) error, emit func(label string, w Word, z timeseries.Series) error) error {
	dec := json.NewDecoder(r)
	if err := expectDelim(dec, '{'); err != nil {
		return fmt.Errorf("sax: load: %w", err)
	}
	var (
		hdr        V1Header
		version    int
		seen       = map[string]bool{}
		enc        *Encoder
		sawEntries bool
	)
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			return fmt.Errorf("sax: load: %w", err)
		}
		key, ok := tok.(string)
		if !ok {
			return fmt.Errorf("sax: load: unexpected token %v", tok)
		}
		switch key {
		case "version":
			err = dec.Decode(&version)
		case "segments":
			err = dec.Decode(&hdr.Segments)
		case "alphabet":
			err = dec.Decode(&hdr.Alphabet)
		case "series_len":
			err = dec.Decode(&hdr.SeriesLen)
		case "shift_frac":
			err = dec.Decode(&hdr.ShiftFrac)
		case "entries":
			if !(seen["version"] && seen["segments"] && seen["alphabet"] && seen["series_len"]) {
				return errors.New("sax: load: entries precede the header fields")
			}
			if version != currentVersion {
				return fmt.Errorf("sax: unsupported database version %d", version)
			}
			enc, err = NewEncoder(hdr.Segments, hdr.Alphabet)
			if err != nil {
				return fmt.Errorf("sax: load: %w", err)
			}
			if err = onHeader(hdr); err != nil {
				return err
			}
			if err = decodeV1Entries(dec, enc, hdr, emit); err != nil {
				return err
			}
			sawEntries = true
			continue
		default:
			var skip json.RawMessage
			err = dec.Decode(&skip)
		}
		if err != nil {
			return fmt.Errorf("sax: load: field %q: %w", key, err)
		}
		seen[key] = true
	}
	if err := expectDelim(dec, '}'); err != nil {
		return fmt.Errorf("sax: load: %w", err)
	}
	if !sawEntries {
		return errors.New("sax: load: file has no entries array")
	}
	return nil
}

// decodeV1Entries streams the entries array, validating each entry before
// handing it on.
func decodeV1Entries(dec *json.Decoder, enc *Encoder, hdr V1Header, emit func(label string, w Word, z timeseries.Series) error) error {
	if err := expectDelim(dec, '['); err != nil {
		return fmt.Errorf("sax: load: entries: %w", err)
	}
	for i := 0; dec.More(); i++ {
		var e entryFile
		if err := dec.Decode(&e); err != nil {
			return fmt.Errorf("sax: load: entry %d: %w", i, err)
		}
		if e.Label == "" {
			return fmt.Errorf("sax: load: entry %d has empty label", i)
		}
		if len(e.Series) != hdr.SeriesLen {
			return fmt.Errorf("sax: load: entry %d series length %d != %d",
				i, len(e.Series), hdr.SeriesLen)
		}
		s := timeseries.Series(e.Series)
		w, err := enc.Encode(s)
		if err != nil {
			return fmt.Errorf("sax: load: entry %d: %w", i, err)
		}
		if w.Symbols != e.Word {
			return fmt.Errorf("sax: load: entry %d word %q does not match its series (recomputed %q) — corrupted file",
				i, e.Word, w.Symbols)
		}
		if err := emit(e.Label, w, s); err != nil {
			return err
		}
	}
	if err := expectDelim(dec, ']'); err != nil {
		return fmt.Errorf("sax: load: entries: %w", err)
	}
	return nil
}

// expectDelim consumes one token and checks it is the given delimiter.
func expectDelim(dec *json.Decoder, d json.Delim) error {
	tok, err := dec.Token()
	if err != nil {
		return err
	}
	if got, ok := tok.(json.Delim); !ok || got != d {
		return fmt.Errorf("expected %q, got %v", d, tok)
	}
	return nil
}

// Load reads a database previously written by Save, reconstructing the
// encoder and verifying every stored word against its series. The decode is
// token-streaming (DecodeV1): v1 import of a large file holds one entry at a
// time, not the whole databaseFile.
func Load(r io.Reader) (*Database, error) {
	var db *Database
	err := DecodeV1(r,
		func(h V1Header) error {
			enc, err := NewEncoder(h.Segments, h.Alphabet)
			if err != nil {
				return fmt.Errorf("sax: load: %w", err)
			}
			db, err = NewDatabase(enc, h.SeriesLen)
			if err != nil {
				return fmt.Errorf("sax: load: %w", err)
			}
			if h.ShiftFrac > 0 {
				db.SetShiftWindowFrac(h.ShiftFrac)
			}
			return nil
		},
		func(label string, w Word, z timeseries.Series) error {
			db.insert(label, w, z)
			return nil
		})
	if err != nil {
		return nil, err
	}
	if db.Len() == 0 {
		return nil, errors.New("sax: load: database has no entries")
	}
	return db, nil
}
