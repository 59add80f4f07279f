package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"
	"sync"
	"unsafe"
)

// graphwire.go decodes the JSON bodies of the value graph endpoints
// (/v1/graph/ledring, /imu and /flight) without reflection. A byte scanner
// walks the three fixed request schemas and accepts only their canonical
// shape: exact keys without escapes, each at most once per object; numbers
// in the JSON grammar, parsed with the same strconv calls encoding/json
// makes; accel and pos vectors of exactly three elements; nothing but
// whitespace after the value. It declines everything else — null, unknown,
// repeated or case-folded keys, out-of-range numbers, short or long
// vectors, trailing bytes — and hands the body to encoding/json, so every
// accept, reject and error string is encoding/json's: a json.Decoder's for
// the value, and json.Unmarshal's ("invalid character 'x' after top-level
// value") for anything but whitespace after it. FuzzGraphDecode holds the
// two paths to that.

// maxPooledBytes caps what a pooled decode state keeps between requests:
// a state grown past it by one large body is left to the collector.
const maxPooledBytes = 1 << 20

var wirePool = sync.Pool{New: func() any { return new(wireScanner) }}

// wireScanner walks one request body. Its methods report false, leaving
// the cursor wherever it stopped, on any byte outside the canonical shape.
type wireScanner struct {
	body bytes.Buffer // the request body, read once
	b    []byte       // body.Bytes()
	i    int          // cursor into b

	// Scratch, one per array level: elements are scanned into it and then
	// copied into an exactly sized result, so results never grow by
	// doubling. It travels with the body through wirePool.
	rings   []ledringRing
	frames  [][]int
	leds    []int
	windows [][]imuSample
	imu     []imuSample
	trajs   [][]flightSample
	flight  []flightSample
}

// decodeGraphBody reads one request body of at most maxBytes and decodes
// it: with scan when the body has the canonical shape, and otherwise with
// a json.Decoder (unknown fields disallowed) over the same bytes, after
// whose value only whitespace may follow. When the read stopped early — the
// body passed maxBytes, or the transport failed — the decoder reads the
// bytes already read and then the body reader, which repeats the read's
// error, so such a body answers exactly as it would decoding the body
// directly.
func decodeGraphBody[T any](w http.ResponseWriter, r *http.Request, maxBytes int64, scan func(*wireScanner) (T, bool)) (T, error) {
	r.Body = http.MaxBytesReader(w, r.Body, maxBytes)
	s := wirePool.Get().(*wireScanner)
	defer s.release()
	s.body.Reset()
	_, err := s.body.ReadFrom(r.Body) // nil at EOF
	s.b, s.i = s.body.Bytes(), 0
	if err == nil {
		if v, ok := scan(s); ok && s.end() {
			return v, nil
		}
	}
	src := io.Reader(bytes.NewReader(s.b))
	if err != nil {
		src = io.MultiReader(src, r.Body)
	}
	dec := json.NewDecoder(src)
	dec.DisallowUnknownFields()
	var v T
	if err := dec.Decode(&v); err != nil {
		return v, err
	}
	return v, onlySpaceLeft(io.MultiReader(dec.Buffered(), src))
}

// onlySpaceLeft reads r to its end and rejects the first byte that is not
// JSON whitespace, with the error json.Unmarshal gives it; a read error
// before such a byte is returned as is.
func onlySpaceLeft(r io.Reader) error {
	var buf [512]byte
	for {
		n, err := r.Read(buf[:])
		for _, c := range buf[:n] {
			switch c {
			case ' ', '\t', '\r', '\n':
			default:
				return errors.New("invalid character " + quoteChar(c) + " after top-level value")
			}
		}
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// quoteChar formats c the way encoding/json's syntax errors do.
func quoteChar(c byte) string {
	switch c {
	case '\'':
		return `'\''`
	case '"':
		return `'"'`
	}
	q := strconv.Quote(string(c))
	return "'" + q[1:len(q)-1] + "'"
}

// release returns s to wirePool unless it holds more than maxPooledBytes.
func (s *wireScanner) release() {
	held := s.body.Cap() + scratchBytes(s.rings) + scratchBytes(s.frames) +
		scratchBytes(s.leds) + scratchBytes(s.windows) + scratchBytes(s.imu) +
		scratchBytes(s.trajs) + scratchBytes(s.flight)
	if held <= maxPooledBytes {
		wirePool.Put(s)
	}
}

// scratchBytes is the memory a scratch slice keeps.
func scratchBytes[T any](s []T) int {
	var zero T
	return cap(s) * int(unsafe.Sizeof(zero))
}

// scanLedring scans a graphLedringRequest body.
func scanLedring(s *wireScanner) (q graphLedringRequest, ok bool) {
	ok = s.object(func(key []byte) (uint, bool) {
		if string(key) != "rings" {
			return 0, false
		}
		var ok bool
		q.Rings, ok = scanArray(s, &s.rings, s.ledringRing)
		return 1, ok
	})
	return q, ok
}

// ledringRing scans one ring observation: {"frames": [[colour, ...], ...]}.
func (s *wireScanner) ledringRing(r *ledringRing) bool {
	var ok bool
	r.Frames, ok = scanNested(s, "frames", &s.frames, &s.leds, s.integer)
	return ok
}

// scanIMU scans a graphIMURequest body.
func scanIMU(s *wireScanner) (graphIMURequest, bool) {
	w, ok := scanNested(s, "windows", &s.windows, &s.imu, s.imuSample)
	return graphIMURequest{Windows: w}, ok
}

// imuSample scans one IMU sample object.
func (s *wireScanner) imuSample(sm *imuSample) bool {
	return s.object(func(key []byte) (uint, bool) {
		switch string(key) {
		case "t_s":
			return 1, s.float(&sm.TS)
		case "accel":
			return 2, s.vec3(&sm.Accel)
		case "gyro_z":
			return 4, s.float(&sm.GyroZ)
		case "baro_alt_m":
			return 8, s.float(&sm.BaroAltM)
		}
		return 0, false
	})
}

// scanFlight scans a graphFlightRequest body.
func scanFlight(s *wireScanner) (graphFlightRequest, bool) {
	t, ok := scanNested(s, "trajectories", &s.trajs, &s.flight, s.flightSample)
	return graphFlightRequest{Trajectories: t}, ok
}

// flightSample scans one trajectory sample object.
func (s *wireScanner) flightSample(sm *flightSample) bool {
	return s.object(func(key []byte) (uint, bool) {
		switch string(key) {
		case "t_s":
			return 1, s.float(&sm.TS)
		case "pos":
			return 2, s.vec3(&sm.Pos)
		case "heading_deg":
			return 4, s.float(&sm.HeadingDeg)
		}
		return 0, false
	})
}

// scanNested scans {"<key>": [[elem, ...], ...]}, the shape of an IMU or
// flight body and of one LED ring, through the scratch of both array
// levels.
func scanNested[T any](s *wireScanner, key string, outer *[][]T, inner *[]T, elem func(*T) bool) (out [][]T, ok bool) {
	ok = s.object(func(k []byte) (uint, bool) {
		if string(k) != key {
			return 0, false
		}
		var ok bool
		out, ok = scanArray(s, outer, func(row *[]T) bool {
			var ok bool
			*row, ok = scanArray(s, inner, elem)
			return ok
		})
		return 1, ok
	})
	return out, ok
}

// scanArray scans the JSON array at the cursor into the scratch *tmp, one
// elem call per element, and returns an exactly sized copy. The copy is
// non-nil even when empty, as encoding/json decodes [].
func scanArray[T any](s *wireScanner, tmp *[]T, elem func(*T) bool) ([]T, bool) {
	*tmp = (*tmp)[:0]
	ok := s.array(func() bool {
		var zero T
		*tmp = append(*tmp, zero)
		return elem(&(*tmp)[len(*tmp)-1])
	})
	var out []T
	if ok {
		out = make([]T, len(*tmp))
		copy(out, *tmp)
	}
	clear(*tmp) // drop references into this request's results
	return out, ok
}

// object scans the JSON object at the cursor. field scans the value of
// each key and names the key with a distinct bit; an unknown key (field
// reports false) or a repeated one declines the object.
func (s *wireScanner) object(field func(key []byte) (bit uint, ok bool)) bool {
	if !s.lit('{') {
		return false
	}
	var seen uint
	for first := true; ; first = false {
		if more, ok := s.next('}', first); !more {
			return ok
		}
		key, ok := s.key()
		if !ok {
			return false
		}
		bit, ok := field(key)
		if !ok || seen&bit != 0 {
			return false
		}
		seen |= bit
	}
}

// array scans the JSON array at the cursor, one elem call per element.
func (s *wireScanner) array(elem func() bool) bool {
	if !s.lit('[') {
		return false
	}
	for first := true; ; first = false {
		if more, ok := s.next(']', first); !more {
			return ok
		}
		if !elem() {
			return false
		}
	}
}

// next moves between a container's elements: it consumes the closing
// byte (more false, ok true) or, before any element but the first, the
// comma (more true).
func (s *wireScanner) next(closer byte, first bool) (more, ok bool) {
	s.space()
	switch {
	case s.i == len(s.b):
		return false, false
	case s.b[s.i] == closer:
		s.i++
		return false, true
	case first:
		return true, true
	case s.b[s.i] == ',':
		s.i++
		return true, true
	}
	return false, false
}

// key scans an object key and its colon. The key's raw bytes are what the
// schemas compare, so an escaped key matches none and declines.
func (s *wireScanner) key() ([]byte, bool) {
	if !s.lit('"') {
		return nil, false
	}
	n := bytes.IndexByte(s.b[s.i:], '"')
	if n < 0 {
		return nil, false
	}
	k := s.b[s.i : s.i+n]
	s.i += n + 1
	return k, s.lit(':')
}

// vec3 scans a JSON array of exactly three numbers.
func (s *wireScanner) vec3(v *[3]float64) bool {
	n := 0
	return s.array(func() bool {
		if n == len(v) {
			return false
		}
		n++
		return s.float(&v[n-1])
	}) && n == len(v)
}

// float scans a number as encoding/json decodes it into a float64.
func (s *wireScanner) float(f *float64) bool {
	num := s.number()
	if num == nil {
		return false
	}
	var err error
	*f, err = strconv.ParseFloat(string(num), 64)
	return err == nil
}

// integer scans a number as encoding/json decodes it into an int:
// ParseInt refuses a fraction or an exponent, and the value must fit.
func (s *wireScanner) integer(n *int) bool {
	num := s.number()
	if num == nil {
		return false
	}
	v, err := strconv.ParseInt(string(num), 10, 64)
	*n = int(v)
	return err == nil && int64(*n) == v
}

// number scans a number in the JSON grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, returning its bytes, or
// nil when there is none.
func (s *wireScanner) number() []byte {
	s.space()
	b, i := s.b, s.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i+1)
	default:
		return nil
	}
	if i < len(b) && b[i] == '.' {
		j := digits(b, i+1)
		if j == i+1 {
			return nil
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			return nil
		}
		i = j
	}
	num := b[s.i:i]
	s.i = i
	return num
}

// digits returns the index of the first non-digit at or after i.
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// lit consumes the byte c after optional whitespace.
func (s *wireScanner) lit(c byte) bool {
	s.space()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// end reports whether only whitespace is left.
func (s *wireScanner) end() bool {
	s.space()
	return s.i == len(s.b)
}

// space skips JSON whitespace.
func (s *wireScanner) space() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}
