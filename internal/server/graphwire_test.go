package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"

	"hdc/internal/flight"
	"hdc/internal/geom"
	"hdc/internal/graph/nodes"
	"hdc/internal/imu"
	"hdc/internal/ledring"
)

// graphwire_test.go holds the graph-body scanner to encoding/json. For any
// body and body limit:
//   - a body over the limit answers the read's error;
//   - a body the scanner accepts, encoding/json accepts too (unknown fields
//     disallowed, only whitespace after the value), and the wire structs it
//     fills, put through the reference conversion, equal the scanner's
//     graph inputs bit for bit;
//   - the same body re-encoded with json.Marshal scans to the same bits;
//   - every other body is rejected as malformed at a byte inside it.

// The wire structs encoding/json decodes the reference into. Slice fields
// are omitempty, so json.Marshal re-encodes an absent or empty array as an
// absent key (which the scanner accepts), never as null.
type (
	ledringRing struct {
		Frames [][]int `json:"frames,omitempty"`
	}
	graphLedringRequest struct {
		Rings []ledringRing `json:"rings,omitempty"`
	}
	imuSample struct {
		TS       float64    `json:"t_s"`
		Accel    [3]float64 `json:"accel"`
		GyroZ    float64    `json:"gyro_z"`
		BaroAltM float64    `json:"baro_alt_m"`
	}
	graphIMURequest struct {
		Windows [][]imuSample `json:"windows,omitempty"`
	}
	flightSample struct {
		TS         float64    `json:"t_s"`
		Pos        [3]float64 `json:"pos"`
		HeadingDeg float64    `json:"heading_deg"`
	}
	graphFlightRequest struct {
		Trajectories [][]flightSample `json:"trajectories,omitempty"`
	}
)

// The reference conversion: the copy from wire structs into graph inputs
// the handlers made before the scanner filled the inputs itself.

func (q graphLedringRequest) inputs() []nodes.LedringInput {
	return convert(q.Rings, func(r ledringRing) nodes.LedringInput {
		return nodes.LedringInput{Frames: convert(r.Frames, func(f []int) []ledring.Color {
			return convert(f, func(c int) ledring.Color { return ledring.Color(c) })
		})}
	})
}

func (q graphIMURequest) inputs() []nodes.IMUWindow {
	return convert(q.Windows, func(win []imuSample) nodes.IMUWindow {
		return convert(win, func(sm imuSample) imu.Sample {
			return imu.Sample{
				T:        secondsToDuration(sm.TS),
				Accel:    geom.V3(sm.Accel[0], sm.Accel[1], sm.Accel[2]),
				GyroZ:    sm.GyroZ,
				BaroAltM: sm.BaroAltM,
			}
		})
	})
}

func (q graphFlightRequest) inputs() []flight.Trajectory {
	return convert(q.Trajectories, func(tr []flightSample) flight.Trajectory {
		return convert(tr, func(sm flightSample) flight.Sample {
			return flight.Sample{
				T:       sm.TS,
				Pos:     geom.V3(sm.Pos[0], sm.Pos[1], sm.Pos[2]),
				Heading: geom.NewHeading(sm.HeadingDeg * math.Pi / 180),
			}
		})
	})
}

// convert maps in through f, keeping a nil slice nil.
func convert[T, U any](in []T, f func(T) U) []U {
	if in == nil {
		return nil
	}
	out := make([]U, len(in))
	for i, v := range in {
		out[i] = f(v)
	}
	return out
}

// graphSchema is one value endpoint's request schema under test.
type graphSchema struct {
	name string
	// check runs the properties on one body and reports whether the
	// scanner accepted it.
	check func(t *testing.T, body []byte, limit int64, oneByte bool) (accepted bool)
	// accepted are bodies in the canonical shape, the first a plain one;
	// rejected are bodies outside it, many of which encoding/json takes.
	accepted, rejected []string
}

var graphSchemas = []graphSchema{
	{
		name:  "ledring",
		check: checker[graphLedringRequest](scanLedring),
		accepted: []string{
			`{"rings":[{"frames":[[0,1,2,3],[3,2,1,0]]},{"frames":[]},{"frames":[[]]},{}]}`,
			`{"rings":[{"frames":[[-0]]}]}`,
			`{"rings":[{"frames":[[9223372036854775807,-9223372036854775808]]}]}`,
		},
		rejected: []string{
			`{"rings":[{"frames":[[1,2]]},{"frames":[[3]]}],"rings":[{}]}`,
			`{"rings":[{"frames":[[1]]}],"extra":1}`,
			`{"rings":[{"frames":[[1]],"leds":2}]}`,
			`{"rings":[],"rings":[{"frames":[[1]]}]}`,
			`{"rings":[{"frames":[[1]],"frames":[[2,3]]}]}`,
			`{"RINGS":[]}`,
			`{"Rings":[{"Frames":[[1]]}]}`,
			`{"r\u0069ngs":[{"frames":[[1]]}]}`,
			`{"rings":[{"fr\u0061mes":[[1]]}]}`,
			`{"rings":null}`,
			`{"rings":[null]}`,
			`{"rings":[{"frames":null}]}`,
			`{"rings":[{"frames":[null]}]}`,
			`{"rings":[{"frames":[[null]]}]}`,
			`{"rings":[{"frames":[[1.0]]}]}`,
			`{"rings":[{"frames":[[1e0]]}]}`,
			`{"rings":[{"frames":[[1E+2]]}]}`,
			`{"rings":[{"frames":[[9223372036854775808]]}]}`,
			`{"rings":[{"frames":[[-9223372036854775809]]}]}`,
			`{"rings":[{"frames":[[01]]}]}`,
			`{"rings":[{"frames":[[-]]}]}`,
			`{"rings":[{"frames":[[1.]]}]}`,
			`{"rings":[{"frames":[[.5]]}]}`,
			`{"rings":[{"frames":[[+1]]}]}`,
			`{"rings":[{"frames":[["1"]]}]}`,
			`{"rings":[{"frames":[[true]]}]}`,
			`{"rings":[{"frames":[[1,]]}]}`,
			`{"rings":[{"frames":[[,1]]}]}`,
			`{"rings":[{"frames":[[1 2]]}]}`,
			`{"rings":[{"frames":[[1]]},]}`,
			`{"rings":{"frames":[[1]]}}`,
		},
	},
	{
		name:  "imu",
		check: checker[graphIMURequest](scanIMU),
		accepted: []string{
			`{"windows":[[{"t_s":0.05,"accel":[0.1,-0.2,9.81],"gyro_z":-1.5e-3,"baro_alt_m":5},{"t_s":0.1,"accel":[0,0,9.8]}],[]]}`,
			`{"windows":[[{"t_s":0,"accel":[0,0,9.81]},{"t_s":0.1,"accel":[0,0,9.81]}]]}`, // README's curl
			`{"windows":[[{"t_s":1e-400}]]}`,
			`{"windows":[[{"t_s":-0,"gyro_z":-0.0,"baro_alt_m":0e5}]]}`,
			`{"windows":[[{"t_s":1E-2,"gyro_z":2e+3,"baro_alt_m":-4.25E1}]]}`,
			`{"windows":[[{"t_s":0.1000000000000000055511151231257827}]]}`,
		},
		rejected: []string{
			`{"windows":[[{"t_s":1,"gyro_z":2}]],"windows":[[{"t_s":3}]]}`,
			`{"windows":[[{"t_s":0.05,"gyro_x":1}]]}`,
			`{"windows":[[{"t_s":0.05}]],"rate":20}`,
			`{"windows":[[{"t_s":0.05,"t_s":0.1}]]}`,
			`{"windows":[[{"T_S":0.05}]]}`,
			`{"Windows":[[{"t_s":0.05}]]}`,
			`{"windows":[[{"t\u005fs":0.05}]]}`,
			`{"windows":null}`,
			`{"windows":[null]}`,
			`{"windows":[[null]]}`,
			`{"windows":[[{"t_s":null}]]}`,
			`{"windows":[[{"accel":null}]]}`,
			`{"windows":[[{"accel":[1,null,3]}]]}`,
			`{"windows":[[{"t_s":1e400}]]}`,
			`{"windows":[[{"t_s":-1e400}]]}`,
			`{"windows":[[{"accel":[1,2]}]]}`,
			`{"windows":[[{"accel":[1,2,3,4]}]]}`,
			`{"windows":[[{"accel":[]}]]}`,
			`{"windows":[[{"accel":[[1],2,3]}]]}`,
			`{"windows":[[{"accel":"1,2,3"}]]}`,
			`{"windows":[[{"t_s":0x10}]]}`,
			`{"windows":[[{"t_s":Infinity}]]}`,
			`{"windows":[[{"t_s":NaN}]]}`,
			`{"windows":[[{"t_s":0.05}]`,
			`{"windows":[[{"t_s":0.05} {"t_s":0.1}]]}`,
		},
	},
	{
		name:  "flight",
		check: checker[graphFlightRequest](scanFlight),
		accepted: []string{
			`{"trajectories":[[{"t_s":0,"pos":[1,2.5,-3e1],"heading_deg":90}],[]]}`,
			" \t\r\n{ \"trajectories\" : [ [ {\"t_s\":0,\"pos\":[ 1 , 2.5 , -3e1 ],\"heading_deg\":90} ] , [ ] ] } \n",
			`{"trajectories":[[{"t_s":-0,"heading_deg":-0e0}]]}`,
		},
		rejected: []string{
			`{"trajectories":[[{"t_s":1,"heading_deg":2}]],"trajectories":[[{"t_s":3}]]}`,
			`{"trajectories":[[{"t_s":0,"pos":[1,2,3],"heading":90}]]}`,
			`{"trajectories":[[{"t_s":0,"pos":[1,2,3],"pos":[4,5,6]}]]}`,
			`{"trajectories":[[{"t_s":0}]],"trajectories":[]}`,
			`{"trajectories":[[{"POS":[1,2,3]}]]}`,
			`{"trajectories":[[{"p\u006fs":[1,2,3]}]]}`,
			`{"trajectories":[[{"heading_deg":null}]]}`,
			`{"trajectories":[[{"pos":[1,2]}]]}`,
			`{"trajectories":[[{"pos":[1,2,3,4]}]]}`,
			`{"trajectories":[[{"pos":[1,2,1e999]}]]}`,
			`{"trajectories":[[{"t_s":0}],]}`,
		},
	},
}

// sharedAccepted and sharedRejected apply to every schema.
var (
	sharedAccepted = []string{"{}", " {} \n\t\r"}
	sharedRejected = []string{
		"", " ", "null", "[]", `""`, "0", "{", "}", `{"":1}`, `{"a"}`, `{"a":}`,
		"\xef\xbb\xbf{}", `{}{}`, `{} x`, "{}\x00",
	}
)

// errMalformedPrefix starts the error of every rejected body.
const errMalformedPrefix = "server: malformed request body at byte "

// checker builds a graphSchema check for one scan function and the wire
// struct W whose reference conversion it must match.
func checker[W interface{ inputs() []T }, T any](scan func(*wireScanner) ([]T, bool)) func(*testing.T, []byte, int64, bool) bool {
	return func(t *testing.T, body []byte, limit int64, oneByte bool) bool {
		t.Helper()
		var rd io.Reader = bytes.NewReader(body)
		if oneByte {
			rd = iotest.OneByteReader(rd)
		}
		req := httptest.NewRequest(http.MethodPost, "/", rd)
		got, err := decodeGraphBody(httptest.NewRecorder(), req, limit, scan)

		if int64(len(body)) > max(limit, 0) {
			var tooLarge *http.MaxBytesError
			if !errors.As(err, &tooLarge) {
				t.Fatalf("body %q limit %d: error %v, want the read's %T", body, limit, err, tooLarge)
			}
			return false
		}
		if err != nil {
			at, perr := strconv.Atoi(strings.TrimPrefix(err.Error(), errMalformedPrefix))
			if !strings.HasPrefix(err.Error(), errMalformedPrefix) || perr != nil || at < 0 || at > len(body) {
				t.Fatalf("body %q: error %q, want %q and a byte of the body", body, err, errMalformedPrefix)
			}
			return false
		}

		var q W
		if err := jsonDecode(body, &q); err != nil {
			t.Fatalf("body %q: scanner accepted, encoding/json: %v", body, err)
		}
		if want := q.inputs(); !sameBits(reflect.ValueOf(got), reflect.ValueOf(want), true) {
			t.Fatalf("body %q: scanned %+v, encoding/json %+v", body, got, want)
		}

		// Round trip: the value re-encoded scans to the same bits. An empty
		// array re-encodes as an absent key, so nil and empty agree here.
		re, err := json.Marshal(q)
		if err != nil {
			t.Fatal(err)
		}
		s := &wireScanner{b: re}
		again, ok := scan(s)
		if !ok || !s.end() {
			t.Fatalf("body %q re-encoded as %q: rejected at byte %d", body, re, s.i)
		}
		if !sameBits(reflect.ValueOf(again), reflect.ValueOf(got), false) {
			t.Fatalf("body %q re-encoded as %q: scanned %+v, first %+v", body, re, again, got)
		}
		return true
	}
}

// jsonDecode is the reference decoder: encoding/json with unknown fields
// disallowed, and nothing but whitespace after the value.
func jsonDecode(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); !errors.Is(err, io.EOF) {
		return fmt.Errorf("after the value: %v", err)
	}
	return nil
}

// sameBits reports whether a and b hold the same decoded value: slices of
// equal length (and, when nilMatters, equal nil-ness), equal integers, and
// floats equal by Float64bits, so -0 and 0 differ.
func sameBits(a, b reflect.Value, nilMatters bool) bool {
	switch a.Kind() {
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Int, reflect.Int64:
		return a.Int() == b.Int()
	case reflect.Slice, reflect.Array:
		if nilMatters && a.Kind() == reflect.Slice && a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameBits(a.Index(i), b.Index(i), nilMatters) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameBits(a.Field(i), b.Field(i), nilMatters) {
				return false
			}
		}
		return true
	}
	panic("sameBits: unexpected kind " + a.Kind().String())
}

// TestGraphDecodeMatchesJSON runs the properties over the seed bodies at a
// roomy limit and at limits that cut them, and pins which side each seed
// falls on: the accepted ones, the benchmark-shaped bodies and the README's
// curl body are accepted; every rejected one answers malformed, and so 400.
func TestGraphDecodeMatchesJSON(t *testing.T) {
	bodies := graphBenchBodies(t)
	for k, sc := range graphSchemas {
		t.Run(sc.name, func(t *testing.T) {
			accepted := append(append([]string{string(bodies[k])}, sc.accepted...), sharedAccepted...)
			rejected := append(append([]string{}, sc.rejected...), sharedRejected...)
			for _, v := range append(accepted, rejected...) {
				for _, limit := range []int64{1 << 30, int64(len(v)), int64(len(v)) - 1, 3, 0, -1} {
					sc.check(t, []byte(v), limit, false)
				}
			}
			for _, v := range accepted {
				if !sc.check(t, []byte(v), 1<<30, true) {
					t.Errorf("scanner rejected %.200q", v)
				}
			}
			for _, v := range rejected {
				if sc.check(t, []byte(v), 1<<30, true) {
					t.Errorf("scanner accepted %q", v)
				}
			}
			// Over the limit: the value ends inside it, followed by more
			// bytes than the limit allows, and the value does not end.
			plain := sc.accepted[0]
			long := plain + strings.Repeat(" ", 64) + "trailing"
			end := int64(len(plain))
			for _, limit := range []int64{end, end + 8, end - 1, end / 2} {
				sc.check(t, []byte(long), limit, false)
				sc.check(t, []byte(long), limit, true)
			}
		})
	}
}

// TestGraphDecodeReadError pins that a transport failure mid-body answers
// with the read's own error, not a malformed-body one.
func TestGraphDecodeReadError(t *testing.T) {
	errCut := errors.New("connection cut")
	body := io.MultiReader(strings.NewReader(`{"windows":[[{"t_s":`), iotest.ErrReader(errCut))
	req := httptest.NewRequest(http.MethodPost, "/", body)
	if _, err := decodeGraphBody(httptest.NewRecorder(), req, 1<<20, scanIMU); !errors.Is(err, errCut) {
		t.Fatalf("decode error %v, want %v", err, errCut)
	}
}

// FuzzGraphDecode runs the properties over arbitrary bodies and limits.
func FuzzGraphDecode(f *testing.F) {
	for k, sc := range graphSchemas {
		for _, v := range [][]string{sc.accepted, sc.rejected, sharedAccepted, sharedRejected} {
			for _, b := range v {
				f.Add(uint8(k), []byte(b), int64(1<<20), false)
				f.Add(uint8(k), []byte(b+"  x"), int64(len(b)+1), true)
			}
		}
		f.Add(uint8(k), []byte(sc.accepted[0]), int64(len(sc.accepted[0])/2), false)
	}
	f.Fuzz(func(t *testing.T, schema uint8, body []byte, limit int64, oneByte bool) {
		graphSchemas[int(schema)%len(graphSchemas)].check(t, body, limit, oneByte)
	})
}

// graphBenchBodies builds one request body per schema, in graphSchemas
// order, shaped like the repository benchmark's telemetry_graph requests:
// 16 two-frame rings, 16 IMU windows of 48 samples from a simulated sensor
// over flown states, and 16 flight.Executor.Fly trajectories.
func graphBenchBodies(tb testing.TB) [][]byte {
	tb.Helper()
	rng := rand.New(rand.NewSource(1))
	const items = 16

	var rings graphLedringRequest
	for i := 0; i < items; i++ {
		n := []int{10, 12, 16}[i%3]
		frames := make([][]int, 2)
		for j := range frames {
			frames[j] = make([]int, n)
			for k := range frames[j] {
				frames[j][k] = rng.Intn(4)
			}
		}
		rings.Rings = append(rings.Rings, ledringRing{Frames: frames})
	}

	var imus graphIMURequest
	for i := 0; i < items; i++ {
		d, err := flight.New(flight.DefaultParams(), geom.V3(0, 0, 5))
		if err != nil {
			tb.Fatal(err)
		}
		d.StartRotors()
		sensor, err := imu.New(imu.Config{}, rng)
		if err != nil {
			tb.Fatal(err)
		}
		vel := geom.V3(float64(i%3)-1, 0, float64(i%2))
		win := make([]imuSample, 48)
		for j := range win {
			d.Step(0.05, vel, 0)
			s := sensor.Sample(0.05, d.S, d.RotorsOn())
			win[j] = imuSample{TS: s.T.Seconds(), Accel: [3]float64{s.Accel.X, s.Accel.Y, s.Accel.Z}, GyroZ: s.GyroZ, BaroAltM: s.BaroAltM}
		}
		imus.Windows = append(imus.Windows, win)
	}

	var flights graphFlightRequest
	d, err := flight.New(flight.DefaultParams(), geom.Vec3{})
	if err != nil {
		tb.Fatal(err)
	}
	ex := flight.NewExecutor(d)
	if _, err := ex.Fly(flight.PatternTakeOff, geom.Vec3{}); err != nil {
		tb.Fatal(err)
	}
	pats := flight.CommunicativePatterns()
	for i := 0; i < items; i++ {
		dir := geom.NewHeading(2 * math.Pi * rng.Float64()).Vec()
		tr, err := ex.Fly(pats[i%len(pats)], geom.V3(d.S.Pos.X+4*dir.X, d.S.Pos.Y+4*dir.Y, 0))
		if err != nil {
			tb.Fatal(err)
		}
		wire := make([]flightSample, len(tr))
		for j, s := range tr {
			wire[j] = flightSample{TS: s.T, Pos: [3]float64{s.Pos.X, s.Pos.Y, s.Pos.Z}, HeadingDeg: s.Heading.Deg()}
		}
		flights.Trajectories = append(flights.Trajectories, wire)
	}

	var out [][]byte
	for _, v := range []any{rings, imus, flights} {
		b, err := json.Marshal(v)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, b)
	}
	return out
}

// replayBody serves the same bytes to every decode without allocating.
type replayBody struct{ bytes.Reader }

func (*replayBody) Close() error { return nil }

// decodeLoop returns a function that decodes body through decodeGraphBody
// once per call, reusing one request.
func decodeLoop[T any](tb testing.TB, body []byte, scan func(*wireScanner) ([]T, bool)) func() []T {
	req := httptest.NewRequest(http.MethodPost, "/", nil)
	w := httptest.NewRecorder()
	rb := &replayBody{}
	return func() []T {
		rb.Reset(body)
		req.Body = rb
		v, err := decodeGraphBody(w, req, 1<<30, scan)
		if err != nil {
			tb.Fatal(err)
		}
		return v
	}
}

// TestGraphDecodeAllocs pins that the scanner allocates the result slices
// and a small constant, never per key or per number: a 16-window, 48-sample
// IMU body carries 3072 keys and 4608 numbers. It drives the scanner on a
// warm state of its own rather than through wirePool, whose Put drops
// items at random under the race detector.
func TestGraphDecodeAllocs(t *testing.T) {
	body := graphBenchBodies(t)[1]
	s := &wireScanner{}
	decode := func() []nodes.IMUWindow {
		s.b, s.i = body, 0
		w, ok := scanIMU(s)
		if !ok || !s.end() {
			t.Fatal("scanner rejected the IMU body")
		}
		return w
	}
	slices := 1 + len(decode())
	const fixed = 2
	if got := testing.AllocsPerRun(50, func() { decode() }); got > float64(slices+fixed) {
		t.Fatalf("%.1f allocations per decode, want at most %d slices + %d", got, slices, fixed)
	}
}

func benchGraphDecode[T any](b *testing.B, k int, scan func(*wireScanner) ([]T, bool)) {
	body := graphBenchBodies(b)[k]
	decode := decodeLoop(b, body, scan)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		decode()
	}
}

// BenchmarkGraphDecodeLedring decodes one 16-ring ledring body.
func BenchmarkGraphDecodeLedring(b *testing.B) { benchGraphDecode(b, 0, scanLedring) }

// BenchmarkGraphDecodeIMU decodes one 16-window, 48-sample IMU body.
func BenchmarkGraphDecodeIMU(b *testing.B) { benchGraphDecode(b, 1, scanIMU) }

// BenchmarkGraphDecodeFlight decodes one 16-trajectory flight body.
func BenchmarkGraphDecodeFlight(b *testing.B) { benchGraphDecode(b, 2, scanFlight) }
