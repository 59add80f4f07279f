package server

import (
	"bytes"
	"errors"
	"net/http"
	"strconv"
	"sync"
	"unsafe"

	"hdc/internal/flight"
	"hdc/internal/geom"
	"hdc/internal/graph/nodes"
	"hdc/internal/imu"
	"hdc/internal/ledring"
)

// graphwire.go decodes the JSON bodies of the value graph endpoints
// (/v1/graph/ledring, /imu and /flight) straight into the graphs' inputs,
// without reflection. A byte scanner walks the three fixed request schemas
// and accepts only their canonical shape: exact keys without escapes, each
// at most once per object; numbers in the JSON grammar, parsed with the
// same strconv calls encoding/json makes; accel and pos vectors of exactly
// three elements; nothing but whitespace after the value. Any other body —
// null, unknown, repeated or case-folded keys, out-of-range numbers, short
// or long vectors, trailing bytes — answers 400 with "server: malformed
// request body at byte N", N the scanner's cursor. There is no second
// decoder. FuzzGraphDecode holds every accepted body to what encoding/json
// decodes from it, bit for bit.

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
	rings   []nodes.LedringInput
	frames  [][]ledring.Color
	leds    []ledring.Color
	windows []nodes.IMUWindow
	imu     []imu.Sample
	trajs   []flight.Trajectory
	flight  []flight.Sample
}

// decodeGraphBody reads one request body of at most maxBytes and scans it
// into the graph inputs. A read that stopped early — the body passed
// maxBytes, or the transport failed — answers with the read's error; a
// body outside the canonical shape with the byte the scanner stopped at.
func decodeGraphBody[T any](w http.ResponseWriter, r *http.Request, maxBytes int64, scan func(*wireScanner) ([]T, bool)) ([]T, error) {
	r.Body = http.MaxBytesReader(w, r.Body, maxBytes)
	s := wirePool.Get().(*wireScanner)
	defer s.release()
	s.body.Reset()
	if _, err := s.body.ReadFrom(r.Body); err != nil { // nil at EOF
		return nil, err
	}
	s.b, s.i = s.body.Bytes(), 0
	v, ok := scan(s)
	if !ok || !s.end() {
		return nil, errors.New("server: malformed request body at byte " + strconv.Itoa(s.i))
	}
	return v, nil
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

// scanLedring scans a ledring body, {"rings": [ring, ...]}.
func scanLedring(s *wireScanner) (rings []nodes.LedringInput, ok bool) {
	ok = s.object(func(key []byte) (uint, bool) {
		if string(key) != "rings" {
			return 0, false
		}
		var ok bool
		rings, ok = scanArray(s, &s.rings, s.ring)
		return 1, ok
	})
	return rings, ok
}

// ring scans one ring observation, {"frames": [[colour, ...], ...]}:
// successive whole-ring frames, each LED a ledring.Color ordinal (0 off,
// 1 red, 2 green, 3 white).
func (s *wireScanner) ring(in *nodes.LedringInput) bool {
	var ok bool
	in.Frames, ok = scanNested(s, "frames", &s.frames, &s.leds, s.color)
	return ok
}

// scanIMU scans an IMU body, {"windows": [[sample, ...], ...]}.
func scanIMU(s *wireScanner) ([]nodes.IMUWindow, bool) {
	return scanNested(s, "windows", &s.windows, &s.imu, s.imuSample)
}

// imuSample scans one IMU sample object.
func (s *wireScanner) imuSample(sm *imu.Sample) bool {
	return s.object(func(key []byte) (uint, bool) {
		switch string(key) {
		case "t_s":
			var ts float64
			ok := s.float(&ts)
			sm.T = secondsToDuration(ts)
			return 1, ok
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

// scanFlight scans a flight body, {"trajectories": [[sample, ...], ...]}.
func scanFlight(s *wireScanner) ([]flight.Trajectory, bool) {
	return scanNested(s, "trajectories", &s.trajs, &s.flight, s.flightSample)
}

// flightSample scans one trajectory sample object.
func (s *wireScanner) flightSample(sm *flight.Sample) bool {
	return s.object(func(key []byte) (uint, bool) {
		switch string(key) {
		case "t_s":
			return 1, s.float(&sm.T)
		case "pos":
			return 2, s.vec3(&sm.Pos)
		case "heading_deg":
			var deg float64
			ok := s.float(&deg)
			sm.Heading = geom.HeadingFromDeg(deg)
			return 4, ok
		}
		return 0, false
	})
}

// scanNested scans {"<key>": [[elem, ...], ...]}, the shape of an IMU or
// flight body and of one LED ring, through the scratch of both array
// levels.
func scanNested[S ~[]T, T any](s *wireScanner, key string, outer *[]S, inner *[]T, elem func(*T) bool) (out []S, ok bool) {
	ok = s.object(func(k []byte) (uint, bool) {
		if string(k) != key {
			return 0, false
		}
		var ok bool
		out, ok = scanArray(s, outer, func(row *S) bool {
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
// reports false) or a repeated one rejects the object.
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
// schemas compare, so an escaped key matches none and is rejected.
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
func (s *wireScanner) vec3(v *geom.Vec3) bool {
	var xyz [3]float64
	n := 0
	ok := s.array(func() bool {
		if n == len(xyz) {
			return false
		}
		n++
		return s.float(&xyz[n-1])
	}) && n == len(xyz)
	*v = geom.Vec3{X: xyz[0], Y: xyz[1], Z: xyz[2]}
	return ok
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

// color scans an LED colour as encoding/json decodes a number into an int:
// ParseInt refuses a fraction or an exponent, and the value must fit.
func (s *wireScanner) color(c *ledring.Color) bool {
	num := s.number()
	if num == nil {
		return false
	}
	v, err := strconv.ParseInt(string(num), 10, 64)
	*c = ledring.Color(v)
	return err == nil && int64(*c) == v
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
