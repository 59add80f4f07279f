package store

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"

	"hdc/internal/timeseries"
)

// wal.go implements the store's write-ahead log: Add appends land here (and
// in the in-memory tail) until compaction folds them into a sealed segment.
// Each record is length-prefixed and checksummed:
//
//	u32 payloadLen ‖ u32 crc32(payload) ‖ payload
//	payload: u64 seq ‖ u32 labelLen ‖ label ‖ wordLen bytes ‖ seriesLen × f64
//
// Recovery walks the log from the front. A record that fails its length or
// checksum is taken as a torn tail from an interrupted append: the log is
// truncated there and everything before it is kept — the crash loses at most
// the append that was in flight, never sealed data. Records whose seq
// precedes the manifest's next_seq are skipped: they were already folded
// into a segment by a compaction that crashed after swapping the manifest
// but before rewriting the log, so replaying them would duplicate entries.

// walName is the log's file name within a store directory.
const walName = "wal.log"

// walRecord is one recovered append.
type walRecord struct {
	seq    uint64
	label  string
	word   string
	series timeseries.Series
}

// wal is the open, append-only log handle.
type wal struct {
	f    *os.File
	sync bool // fsync after every append
}

// openWAL opens (creating if absent) the log for appending.
func openWAL(dir string, syncWrites bool) (*wal, error) {
	f, err := os.OpenFile(filepath.Join(dir, walName), os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &wal{f: f, sync: syncWrites}, nil
}

// append writes one record. The buffer layout matches replayWAL.
func (w *wal) append(seq uint64, label, word string, series timeseries.Series) error {
	payload := 8 + 4 + len(label) + len(word) + 8*len(series)
	buf := make([]byte, 8+payload)
	binary.LittleEndian.PutUint32(buf[0:], uint32(payload))
	p := buf[8:]
	binary.LittleEndian.PutUint64(p[0:], seq)
	binary.LittleEndian.PutUint32(p[8:], uint32(len(label)))
	copy(p[12:], label)
	off := 12 + len(label)
	copy(p[off:], word)
	off += len(word)
	for _, v := range series {
		binary.LittleEndian.PutUint64(p[off:], math.Float64bits(v))
		off += 8
	}
	binary.LittleEndian.PutUint32(buf[4:], crc32.ChecksumIEEE(p))
	if _, err := w.f.Write(buf); err != nil {
		return err
	}
	if w.sync {
		return w.f.Sync()
	}
	return nil
}

// close closes the log handle.
func (w *wal) close() error { return w.f.Close() }

// replayWAL reads the log at dir, returning the records with seq ≥ skipBelow
// in order. A torn tail (short read or checksum mismatch at the end) is
// truncated in place; a structurally invalid record that passes its checksum
// is real corruption and fails with ErrCorruptWAL. Returns the records and
// the post-truncation log length.
func replayWAL(dir string, p segParams, skipBelow uint64) ([]walRecord, int64, error) {
	path := filepath.Join(dir, walName)
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, 0, nil
		}
		return nil, 0, err
	}
	defer f.Close()

	var (
		recs    []walRecord
		good    int64 // offset after the last whole, checksum-valid record
		br      = bufio.NewReader(f)
		hdr     [8]byte
		lastSeq uint64
	)
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			break // clean EOF or torn length prefix — truncate here
		}
		plen := binary.LittleEndian.Uint32(hdr[0:])
		want := binary.LittleEndian.Uint32(hdr[4:])
		if plen < 12 || plen > uint32(12+maxLabelLen+p.wordLen+8*p.seriesLen) {
			break // implausible length: torn or scribbled tail
		}
		payload := make([]byte, plen)
		if _, err := io.ReadFull(br, payload); err != nil {
			break // torn payload
		}
		if crc32.ChecksumIEEE(payload) != want {
			break // torn or bit-flipped tail
		}
		rec, err := decodeWALPayload(payload, p)
		if err != nil {
			return nil, 0, fmt.Errorf("%w: %s: offset %d: %v", ErrCorruptWAL, path, good, err)
		}
		good += int64(8 + plen)
		if rec.seq < skipBelow {
			continue // already sealed into a segment
		}
		if len(recs) > 0 && rec.seq <= lastSeq {
			return nil, 0, fmt.Errorf("%w: %s: sequence %d not increasing", ErrCorruptWAL, path, rec.seq)
		}
		lastSeq = rec.seq
		recs = append(recs, rec)
	}
	fi, err := f.Stat()
	if err != nil {
		return nil, 0, err
	}
	if fi.Size() > good {
		if err := os.Truncate(path, good); err != nil {
			return nil, 0, fmt.Errorf("store: truncating torn log tail: %w", err)
		}
	}
	return recs, good, nil
}

// maxLabelLen bounds a plausible label inside a log record, so a scribbled
// length prefix is recognised as a torn tail instead of driving a huge
// allocation.
const maxLabelLen = 1 << 20

// decodeWALPayload parses and validates one checksum-verified payload.
func decodeWALPayload(p []byte, sp segParams) (walRecord, error) {
	var r walRecord
	r.seq = binary.LittleEndian.Uint64(p[0:])
	ll := int(binary.LittleEndian.Uint32(p[8:]))
	rest := p[12:]
	if ll == 0 || ll > len(rest) {
		return r, fmt.Errorf("label length %d out of range", ll)
	}
	r.label = string(rest[:ll])
	rest = rest[ll:]
	if len(rest) != sp.wordLen+8*sp.seriesLen {
		return r, fmt.Errorf("record size does not match store parameters")
	}
	for _, b := range rest[:sp.wordLen] {
		if b < 'a' || int(b-'a') >= sp.alphabet {
			return r, fmt.Errorf("word symbol out of alphabet range")
		}
	}
	r.word = string(rest[:sp.wordLen])
	rest = rest[sp.wordLen:]
	r.series = make(timeseries.Series, sp.seriesLen)
	for i := range r.series {
		r.series[i] = math.Float64frombits(binary.LittleEndian.Uint64(rest[8*i:]))
	}
	return r, nil
}

// rewriteWAL atomically replaces the log with one containing exactly recs
// (the tail that survived a compaction). The new log is written beside the
// old and swapped in with rename; renameFn is the store's injectable rename
// (crash-testing hook).
func rewriteWAL(dir string, recs []walRecord, syncWrites bool, renameFn func(old, new string) error) error {
	tmp := filepath.Join(dir, walName+".tmp")
	f, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	w := &wal{f: f, sync: false}
	for _, r := range recs {
		if err := w.append(r.seq, r.label, r.word, r.series); err != nil {
			f.Close()
			return err
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := renameFn(tmp, filepath.Join(dir, walName)); err != nil {
		return err
	}
	return syncDir(dir)
}
