package store

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"hdc/internal/sax"
	"hdc/internal/timeseries"
)

// convert.go builds store directories in bulk: the Builder streams prepared
// entries into sealed segments chunk by chunk (bounded memory however large
// the dictionary), and ConvertV1 drives it from a version-1 JSON file via
// the sax package's streaming decoder — the `signdb -convert` import path.

// DefaultMaxSegmentEntries bounds a builder segment: at the canonical
// 128-sample series length one segment is ~135 MB, so a million-entry build
// peaks around one segment of accumulation instead of the whole dictionary.
const DefaultMaxSegmentEntries = 1 << 17

// BuilderOptions tune a bulk build.
type BuilderOptions struct {
	// MaxSegmentEntries caps entries per sealed segment (0 uses
	// DefaultMaxSegmentEntries).
	MaxSegmentEntries int
	// ShiftFrac is the rotation-window fraction persisted into the manifest
	// (0 = unbounded search; see Database.SetShiftWindowFrac).
	ShiftFrac float64
}

// Builder accumulates prepared entries and writes a fresh store directory:
// sealed segments are flushed every MaxSegmentEntries, and Commit writes the
// manifest that makes them live. A Builder is single-goroutine; the
// directory is not an openable store until Commit returns.
type Builder struct {
	dir  string
	enc  *sax.Encoder
	p    segParams
	opts BuilderOptions

	acc       accum
	nextSeq   uint64
	segID     int
	segments  []manifestSegment
	committed bool
}

// accum is the builder's in-memory pending segment.
type accum struct {
	labels []string
	words  []string
	series []timeseries.Series
}

func (a *accum) count() int { return len(a.labels) }
func (a *accum) entry(i int) (string, string, []float64) {
	return a.labels[i], a.words[i], a.series[i]
}
func (a *accum) reset() { *a = accum{} }

// NewBuilder prepares a bulk build into dir (created if absent; must not
// already contain a store) for signatures of length seriesLen symbolised by
// enc.
func NewBuilder(dir string, enc *sax.Encoder, seriesLen int, opts BuilderOptions) (*Builder, error) {
	if enc == nil {
		return nil, errors.New("store: nil encoder")
	}
	if seriesLen < enc.Segments() {
		return nil, fmt.Errorf("store: series length %d below word length %d", seriesLen, enc.Segments())
	}
	if opts.MaxSegmentEntries <= 0 {
		opts.MaxSegmentEntries = DefaultMaxSegmentEntries
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if _, err := os.Stat(filepath.Join(dir, manifestName)); err == nil {
		return nil, fmt.Errorf("store: %s already contains a store", dir)
	}
	return &Builder{
		dir:  dir,
		enc:  enc,
		p:    segParams{wordLen: enc.Segments(), alphabet: enc.AlphabetSize(), seriesLen: seriesLen},
		opts: opts,
		acc:  accum{},

		nextSeq: 1,
		segID:   1,
	}, nil
}

// Add appends a prepared entry: z must already be canonical-length and
// z-normalised, with w its encoding (the ConvertV1 path gets all three from
// the streaming decoder). Use AddSeries for raw input.
func (b *Builder) Add(label string, w sax.Word, z timeseries.Series) error {
	if b.committed {
		return errors.New("store: builder already committed")
	}
	if label == "" {
		return errors.New("store: empty label")
	}
	if len(w.Symbols) != b.p.wordLen || w.Alphabet != b.p.alphabet || len(z) != b.p.seriesLen {
		return fmt.Errorf("store: entry %q does not match the builder's parameters", label)
	}
	b.acc.labels = append(b.acc.labels, label)
	b.acc.words = append(b.acc.words, w.Symbols)
	b.acc.series = append(b.acc.series, z)
	if b.acc.count() >= b.opts.MaxSegmentEntries {
		return b.flush()
	}
	return nil
}

// AddSeries resamples, z-normalises and encodes a raw series, then Adds it.
func (b *Builder) AddSeries(label string, s timeseries.Series) error {
	rs, err := s.ResampleLinear(b.p.seriesLen)
	if err != nil {
		return fmt.Errorf("store: add %q: %w", label, err)
	}
	z := rs.ZNormalize()
	w, err := b.enc.Encode(z)
	if err != nil {
		return fmt.Errorf("store: add %q: %w", label, err)
	}
	return b.Add(label, w, z)
}

// flush seals the accumulated entries into a segment file.
func (b *Builder) flush() error {
	n := b.acc.count()
	if n == 0 {
		return nil
	}
	name := fmt.Sprintf("seg-%06d.seg", b.segID)
	tmp := filepath.Join(b.dir, name+".tmp")
	crc, err := writeSegment(tmp, b.p, b.nextSeq, &b.acc)
	if err != nil {
		_ = os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, filepath.Join(b.dir, name)); err != nil {
		_ = os.Remove(tmp)
		return err
	}
	b.segments = append(b.segments, manifestSegment{File: name, Entries: n, BaseSeq: b.nextSeq, CRC: crc})
	b.nextSeq += uint64(n)
	b.segID++
	b.acc.reset()
	return nil
}

// Commit flushes the pending segment and writes the manifest, turning dir
// into an openable store. The builder cannot be used afterwards.
func (b *Builder) Commit() error {
	if b.committed {
		return errors.New("store: builder already committed")
	}
	if err := b.flush(); err != nil {
		return err
	}
	b.committed = true
	if err := syncDir(b.dir); err != nil {
		return err
	}
	mf := &manifest{
		Version:   storeVersion,
		WordLen:   b.p.wordLen,
		Alphabet:  b.p.alphabet,
		SeriesLen: b.p.seriesLen,
		ShiftFrac: b.opts.ShiftFrac,
		NextSeq:   b.nextSeq,
		NextSegID: b.segID,
		Segments:  b.segments,
	}
	return writeManifest(b.dir, mf, os.Rename)
}

// Entries returns how many entries the builder has accepted.
func (b *Builder) Entries() int { return int(b.nextSeq-1) + b.acc.count() }

// ConvertV1 converts a version-1 JSON dictionary (the sax.Save format) read
// from r into a fresh store at dir, streaming entry by entry — neither the
// JSON nor the store side ever holds more than one pending segment in
// memory. Returns the number of entries converted.
func ConvertV1(r io.Reader, dir string, opts BuilderOptions) (int, error) {
	var b *Builder
	err := sax.DecodeV1(r,
		func(h sax.V1Header) error {
			enc, err := sax.NewEncoder(h.Segments, h.Alphabet)
			if err != nil {
				return err
			}
			if opts.ShiftFrac == 0 {
				opts.ShiftFrac = h.ShiftFrac
			}
			b, err = NewBuilder(dir, enc, h.SeriesLen, opts)
			return err
		},
		func(label string, w sax.Word, z timeseries.Series) error {
			return b.Add(label, w, z)
		})
	if err != nil {
		return 0, err
	}
	if err := b.Commit(); err != nil {
		return 0, err
	}
	return b.Entries(), nil
}
