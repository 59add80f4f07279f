package store

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"sync"
	"sync/atomic"

	"hdc/internal/failpoint"
	"hdc/internal/sax"
	"hdc/internal/timeseries"
)

// segment.go defines the sealed segment file: the immutable, mmap-able unit
// of the on-disk dictionary. A segment holds a contiguous run of entries
// (sequence numbers baseSeq … baseSeq+count-1) in a columnar fixed-width
// layout so every lookup structure is a direct view over the mapping:
//
//	offset 0    header (128 bytes, little-endian, CRC-protected)
//	offLabelIdx count × u32          per-entry index into the label table
//	offHist     count × alphabet × u16   symbol histograms of the words
//	            (reserved: written and bounds-checked, read by nothing; a
//	            format version bump can reuse the space)
//	offWords    count × wordLen bytes    SAX words, fixed width
//	offLabels   label table: u32 n, then n × (u32 len ‖ bytes), deduplicated
//	(pad to 8)
//	offSeries   count × seriesLen × f64  z-normalised reference series
//	            (8-byte aligned so the float view needs no decode)
//
// The header CRC is verified at open; the body CRC covers everything after
// the header and is verified by CheckIntegrity (and the repair tooling), not
// on the open path — opening stays O(validation scan), with the bulk series
// block untouched until a lookup faults it in. The cheap open-time scans
// (word symbols in range, label indices in bounds) exist so that corrupt
// mapped data surfaces as ErrCorruptSegment instead of a panic inside the
// lookup cascade.

// Header field offsets and fixed sizes of the segment file format.
const (
	segMagic      = "SAXSEG01"
	segVersion    = 1
	segHeaderSize = 128

	hdrOffMagic     = 0
	hdrOffVersion   = 8
	hdrOffWordLen   = 12
	hdrOffAlphabet  = 16
	hdrOffSeriesLen = 20
	hdrOffCount     = 24
	hdrOffBaseSeq   = 32
	hdrOffLabelIdx  = 40
	hdrOffHist      = 48
	hdrOffWords     = 56
	hdrOffLabels    = 64
	hdrOffSeries    = 72
	hdrOffFileSize  = 80
	hdrOffBodyCRC   = 120
	hdrOffHeaderCRC = 124
)

// segParams are the encoder/series parameters every segment of a store must
// agree on (they mirror the manifest header).
type segParams struct {
	wordLen   int
	alphabet  int
	seriesLen int
}

// segment is an open (mapped) sealed segment.
type segment struct {
	file    string
	m       mapped
	p       segParams
	count   int
	baseSeq uint64
	bodyCRC uint32

	labels   []string  // decoded label table (heap strings)
	labelIdx []uint32  // view: count entries
	words    []byte    // view: count × wordLen
	series   []float64 // view: count × seriesLen

	// spec holds each entry's Spectrum, derived from the series block on
	// the first lookup (specOnce), not stored in the file. slots, made
	// beside it, cache each entry's forward transform from the entry's
	// first exact evaluation on.
	specOnce sync.Once
	spec     []timeseries.Spectrum
	slots    []sax.TransformSlot
	derived  atomic.Bool // set once spec and slots are made
}

// segmentSource yields entries for segment building: a count and per-entry
// accessors (two passes are taken, one for the label table, one for the
// blocks). Both in-memory accumulators and open segments implement it, so
// compaction streams mapped entries straight into a new file.
type segmentSource interface {
	count() int
	entry(i int) (label, word string, series []float64)
}

// corrupt wraps a format violation in ErrCorruptSegment.
func corrupt(file, format string, a ...any) error {
	return fmt.Errorf("%w: %s: %s", ErrCorruptSegment, file, fmt.Sprintf(format, a...))
}

// openSegment maps the segment at path and validates it against the expected
// parameters. Validation is the cheap structural kind — header CRC, exact
// block geometry, label indices in bounds, word symbols within the alphabet —
// everything needed so lookups over the views cannot fault; the body CRC is
// left to CheckIntegrity.
func openSegment(path string, p segParams) (*segment, error) {
	if err := failpoint.Inject(failpoint.StoreSegmentOpen); err != nil {
		return nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("%w: %s", ErrMissingSegment, path)
		}
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := fi.Size()
	if size < segHeaderSize {
		return nil, corrupt(path, "file size %d below header size", size)
	}
	if size > math.MaxInt {
		return nil, corrupt(path, "file size %d unsupported", size)
	}
	m, err := mapFile(f, int(size))
	if err != nil {
		return nil, err
	}
	sg, err := decodeSegment(path, m, p, uint64(size))
	if err != nil {
		_ = m.close()
		return nil, err
	}
	return sg, nil
}

// decodeSegment validates the mapped bytes and builds the segment's views.
// Factored out of openSegment so the fuzz target can drive it directly.
func decodeSegment(path string, m mapped, p segParams, size uint64) (*segment, error) {
	h := m.data[:segHeaderSize]
	if string(h[hdrOffMagic:hdrOffMagic+8]) != segMagic {
		return nil, corrupt(path, "bad magic")
	}
	if v := binary.LittleEndian.Uint32(h[hdrOffVersion:]); v != segVersion {
		return nil, corrupt(path, "unsupported segment version %d", v)
	}
	if got := crc32.ChecksumIEEE(h[:hdrOffHeaderCRC]); got != binary.LittleEndian.Uint32(h[hdrOffHeaderCRC:]) {
		return nil, corrupt(path, "header checksum mismatch")
	}
	wl := int(binary.LittleEndian.Uint32(h[hdrOffWordLen:]))
	al := int(binary.LittleEndian.Uint32(h[hdrOffAlphabet:]))
	sl := int(binary.LittleEndian.Uint32(h[hdrOffSeriesLen:]))
	if wl != p.wordLen || al != p.alphabet || sl != p.seriesLen {
		return nil, corrupt(path, "parameters (%d,%d,%d) do not match the store's (%d,%d,%d)",
			wl, al, sl, p.wordLen, p.alphabet, p.seriesLen)
	}
	c := uint64(binary.LittleEndian.Uint32(h[hdrOffCount:]))
	fileSize := binary.LittleEndian.Uint64(h[hdrOffFileSize:])
	if fileSize != size {
		return nil, corrupt(path, "header file size %d != actual %d (truncated?)", fileSize, size)
	}

	// Recompute the canonical block geometry and require the header offsets
	// to match it exactly: every view below is then in bounds and aligned by
	// construction.
	offLabelIdx := binary.LittleEndian.Uint64(h[hdrOffLabelIdx:])
	offHist := binary.LittleEndian.Uint64(h[hdrOffHist:])
	offWords := binary.LittleEndian.Uint64(h[hdrOffWords:])
	offLabels := binary.LittleEndian.Uint64(h[hdrOffLabels:])
	offSeries := binary.LittleEndian.Uint64(h[hdrOffSeries:])
	maxCount := (uint64(math.MaxInt64) - segHeaderSize) / uint64(8*sl+wl+2*al+4+1)
	if c > maxCount {
		return nil, corrupt(path, "entry count %d implausible", c)
	}
	if offLabelIdx != segHeaderSize ||
		offHist != offLabelIdx+4*c ||
		offWords != offHist+2*c*uint64(al) ||
		offLabels != offWords+c*uint64(wl) {
		return nil, corrupt(path, "block offsets disagree with entry count")
	}
	if offSeries < offLabels || offSeries > size || !aligned(offSeries, 8) ||
		offSeries+8*c*uint64(sl) != size {
		return nil, corrupt(path, "series block offset/size mismatch")
	}

	sg := &segment{
		file:    path,
		m:       m,
		p:       p,
		count:   int(c),
		baseSeq: binary.LittleEndian.Uint64(h[hdrOffBaseSeq:]),
		bodyCRC: binary.LittleEndian.Uint32(h[hdrOffBodyCRC:]),
	}
	sg.labelIdx = u32View(m.data[offLabelIdx:offHist])
	sg.words = m.data[offWords:offLabels]
	sg.series = f64View(m.data[offSeries:size])

	labels, err := decodeLabelTable(path, m.data[offLabels:offSeries], c)
	if err != nil {
		return nil, err
	}
	sg.labels = labels
	for i, li := range sg.labelIdx {
		if li >= uint32(len(labels)) {
			return nil, corrupt(path, "entry %d label index %d out of range (%d labels)", i, li, len(labels))
		}
	}
	for i, b := range sg.words {
		if b < 'a' || int(b-'a') >= al {
			return nil, corrupt(path, "word byte %d out of alphabet range", i)
		}
	}
	return sg, nil
}

// decodeLabelTable parses the deduplicated label table into heap strings
// (labels outlive the mapping, unlike words/series which are served as
// views).
func decodeLabelTable(path string, b []byte, count uint64) ([]string, error) {
	if len(b) < 4 {
		return nil, corrupt(path, "label table truncated")
	}
	n := binary.LittleEndian.Uint32(b)
	if uint64(n) > count || (count > 0 && n == 0) {
		return nil, corrupt(path, "label table has %d labels for %d entries", n, count)
	}
	b = b[4:]
	labels := make([]string, n)
	for i := range labels {
		if len(b) < 4 {
			return nil, corrupt(path, "label table truncated at label %d", i)
		}
		l := binary.LittleEndian.Uint32(b)
		b = b[4:]
		if uint64(l) > uint64(len(b)) || l == 0 {
			return nil, corrupt(path, "label %d length %d out of range", i, l)
		}
		labels[i] = string(b[:l])
		b = b[l:]
	}
	// Only the 8-byte alignment padding may remain.
	if len(b) >= 8 {
		return nil, corrupt(path, "%d bytes of trailing garbage after label table", len(b))
	}
	for _, pad := range b {
		if pad != 0 {
			return nil, corrupt(path, "nonzero label-table padding")
		}
	}
	return labels, nil
}

// label returns entry i's label (a table string, valid beyond the mapping).
func (sg *segment) label(i int) string { return sg.labels[sg.labelIdx[i]] }

// word returns entry i's SAX symbols as a zero-copy view into the mapping.
func (sg *segment) word(i int) string {
	wl := sg.p.wordLen
	return viewString(sg.words[i*wl : (i+1)*wl])
}

// seriesAt returns entry i's z-normalised series view.
func (sg *segment) seriesAt(i int) timeseries.Series {
	sl := sg.p.seriesLen
	return timeseries.Series(sg.series[i*sl : (i+1)*sl])
}

// spectra returns every entry's Spectrum, computed with tab (a table of the
// segment's series length) on the first call and shared by every later one.
// The first call also makes the entries' (empty) transform slots.
func (sg *segment) spectra(tab *timeseries.SpecTable) []timeseries.Spectrum {
	sg.specOnce.Do(func() {
		sg.spec = make([]timeseries.Spectrum, sg.count)
		for i := range sg.spec {
			sg.spec[i] = tab.Of(sg.seriesAt(i))
		}
		sg.slots = make([]sax.TransformSlot, sg.count)
		sg.derived.Store(true)
	})
	return sg.spec
}

// transformBytes returns the memory of the segment's cached transforms,
// without deriving its spectra when no lookup has.
func (sg *segment) transformBytes() int64 {
	if !sg.derived.Load() {
		return 0
	}
	var b int64
	for i := range sg.slots {
		b += sg.slots[i].Bytes()
	}
	return b
}

// close unmaps the segment.
func (sg *segment) close() error { return sg.m.close() }

// checkIntegrity recomputes the body checksum over the mapping — the deep
// verification openSegment deliberately skips.
func (sg *segment) checkIntegrity() error {
	if got := crc32.ChecksumIEEE(sg.m.data[segHeaderSize:]); got != sg.bodyCRC {
		return corrupt(sg.file, "body checksum mismatch (stored %08x, computed %08x)", sg.bodyCRC, got)
	}
	return nil
}

// source adapts the segment to segmentSource, so compaction reads sealed
// entries back through the same interface the builder's accumulator uses.
func (sg *segment) source() segmentSource { return segSource{sg} }

type segSource struct{ sg *segment }

func (s segSource) count() int { return s.sg.count }
func (s segSource) entry(i int) (string, string, []float64) {
	sg := s.sg
	return sg.label(i), sg.word(i), sg.seriesAt(i)
}

// writeSegment writes a complete segment file at path (created/truncated)
// from src, with sequence numbers baseSeq…baseSeq+count-1, and returns the
// body checksum recorded in the header. The file is fsynced before return;
// the caller owns tmp-file/rename atomicity.
func writeSegment(path string, p segParams, baseSeq uint64, src segmentSource) (bodyCRC uint32, err error) {
	n := src.count()
	if uint64(n) > math.MaxUint32 {
		return 0, fmt.Errorf("store: segment of %d entries exceeds format limit", n)
	}

	// Pass 1: deduplicated label table.
	labelIdx := make([]uint32, n)
	var labels []string
	labelOf := make(map[string]uint32)
	labelBytes := uint64(4)
	for i := 0; i < n; i++ {
		label, word, series := src.entry(i)
		if label == "" {
			return 0, fmt.Errorf("store: entry %d has empty label", i)
		}
		if len(word) != p.wordLen || len(series) != p.seriesLen {
			return 0, fmt.Errorf("store: entry %d shape (%d,%d) does not match store parameters (%d,%d)",
				i, len(word), len(series), p.wordLen, p.seriesLen)
		}
		li, ok := labelOf[label]
		if !ok {
			li = uint32(len(labels))
			labelOf[label] = li
			labels = append(labels, label)
			labelBytes += 4 + uint64(len(label))
		}
		labelIdx[i] = li
	}

	c := uint64(n)
	offLabelIdx := uint64(segHeaderSize)
	offHist := offLabelIdx + 4*c
	offWords := offHist + 2*c*uint64(p.alphabet)
	offLabels := offWords + c*uint64(p.wordLen)
	offSeries := (offLabels + labelBytes + 7) &^ 7
	fileSize := offSeries + 8*c*uint64(p.seriesLen)

	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return 0, err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	if _, err := f.Seek(segHeaderSize, io.SeekStart); err != nil {
		return 0, err
	}
	crc := crc32.NewIEEE()
	bw := bufio.NewWriterSize(io.MultiWriter(f, crc), 1<<20)
	var scratch [8]byte
	putU32 := func(v uint32) {
		binary.LittleEndian.PutUint32(scratch[:4], v)
		bw.Write(scratch[:4])
	}

	// Pass 2: blocks in file order.
	for _, li := range labelIdx {
		putU32(li)
	}
	// The reserved histogram block: each word's symbol counts.
	hist := make([]uint16, p.alphabet)
	for i := 0; i < n; i++ {
		_, word, _ := src.entry(i)
		clear(hist)
		for j := 0; j < len(word); j++ {
			hist[word[j]-'a']++
		}
		for _, hv := range hist {
			binary.LittleEndian.PutUint16(scratch[:2], hv)
			bw.Write(scratch[:2])
		}
	}
	for i := 0; i < n; i++ {
		_, word, _ := src.entry(i)
		bw.WriteString(word)
	}
	putU32(uint32(len(labels)))
	for _, l := range labels {
		putU32(uint32(len(l)))
		bw.WriteString(l)
	}
	for pad := offSeries - (offLabels + labelBytes); pad > 0; pad-- {
		bw.WriteByte(0)
	}
	for i := 0; i < n; i++ {
		_, _, series := src.entry(i)
		for _, v := range series {
			binary.LittleEndian.PutUint64(scratch[:8], math.Float64bits(v))
			bw.Write(scratch[:8])
		}
	}
	if err := bw.Flush(); err != nil {
		return 0, err
	}
	bodyCRC = crc.Sum32()

	var h [segHeaderSize]byte
	copy(h[hdrOffMagic:], segMagic)
	binary.LittleEndian.PutUint32(h[hdrOffVersion:], segVersion)
	binary.LittleEndian.PutUint32(h[hdrOffWordLen:], uint32(p.wordLen))
	binary.LittleEndian.PutUint32(h[hdrOffAlphabet:], uint32(p.alphabet))
	binary.LittleEndian.PutUint32(h[hdrOffSeriesLen:], uint32(p.seriesLen))
	binary.LittleEndian.PutUint32(h[hdrOffCount:], uint32(n))
	binary.LittleEndian.PutUint64(h[hdrOffBaseSeq:], baseSeq)
	binary.LittleEndian.PutUint64(h[hdrOffLabelIdx:], offLabelIdx)
	binary.LittleEndian.PutUint64(h[hdrOffHist:], offHist)
	binary.LittleEndian.PutUint64(h[hdrOffWords:], offWords)
	binary.LittleEndian.PutUint64(h[hdrOffLabels:], offLabels)
	binary.LittleEndian.PutUint64(h[hdrOffSeries:], offSeries)
	binary.LittleEndian.PutUint64(h[hdrOffFileSize:], fileSize)
	binary.LittleEndian.PutUint32(h[hdrOffBodyCRC:], bodyCRC)
	binary.LittleEndian.PutUint32(h[hdrOffHeaderCRC:], crc32.ChecksumIEEE(h[:hdrOffHeaderCRC]))
	if _, err := f.WriteAt(h[:], 0); err != nil {
		return 0, err
	}
	if err := f.Sync(); err != nil {
		return 0, err
	}
	return bodyCRC, nil
}
