package server

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"

	"hdc/internal/flight"
	"hdc/internal/geom"
	"hdc/internal/imu"
)

// graphwire_test.go holds the graph-body decoder to encoding/json: for any
// body and body limit, decodeGraphBody and a plain json.Decoder with
// unknown fields disallowed must agree on accept or reject, on the error
// string, and on every decoded value bit for bit.

// graphSchema is one value endpoint's request schema under test.
type graphSchema struct {
	name string
	// check runs the differential on one body and reports whether the
	// scanner, not the encoding/json fallback, took it.
	check func(t *testing.T, body []byte, limit int64, oneByte bool) (scanned bool)
	// accepted are bodies in the scanner's canonical shape, the first a
	// plain one; declined are bodies it must hand to encoding/json.
	accepted, declined []string
}

var graphSchemas = []graphSchema{
	{
		name:  "ledring",
		check: checker(scanLedring),
		accepted: []string{
			`{"rings":[{"frames":[[0,1,2,3],[3,2,1,0]]},{"frames":[]},{"frames":[[]]},{}]}`,
			`{"rings":[{"frames":[[-0]]}]}`,
			`{"rings":[{"frames":[[9223372036854775807,-9223372036854775808]]}]}`,
		},
		declined: []string{
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
		check: checker(scanIMU),
		accepted: []string{
			`{"windows":[[{"t_s":0.05,"accel":[0.1,-0.2,9.81],"gyro_z":-1.5e-3,"baro_alt_m":5},{"t_s":0.1,"accel":[0,0,9.8]}],[]]}`,
			`{"windows":[[{"t_s":0,"accel":[0,0,9.81]},{"t_s":0.1,"accel":[0,0,9.81]}]]}`, // README's curl
			`{"windows":[[{"t_s":1e-400}]]}`,
			`{"windows":[[{"t_s":-0,"gyro_z":-0.0,"baro_alt_m":0e5}]]}`,
			`{"windows":[[{"t_s":1E-2,"gyro_z":2e+3,"baro_alt_m":-4.25E1}]]}`,
			`{"windows":[[{"t_s":0.1000000000000000055511151231257827}]]}`,
		},
		declined: []string{
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
		check: checker(scanFlight),
		accepted: []string{
			`{"trajectories":[[{"t_s":0,"pos":[1,2.5,-3e1],"heading_deg":90}],[]]}`,
			" \t\r\n{ \"trajectories\" : [ [ {\"t_s\":0,\"pos\":[ 1 , 2.5 , -3e1 ],\"heading_deg\":90} ] , [ ] ] } \n",
			`{"trajectories":[[{"t_s":-0,"heading_deg":-0e0}]]}`,
		},
		declined: []string{
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

// sharedAccepted and sharedDeclined apply to every schema.
var (
	sharedAccepted = []string{"{}", " {} \n\t\r"}
	sharedDeclined = []string{
		"", " ", "null", "[]", `""`, "0", "{", "}", `{"":1}`, `{"a"}`, `{"a":}`,
		"\xef\xbb\xbf{}", `{}{}`, `{} x`, "{}\x00",
	}
)

// checker builds a graphSchema check for one scan function.
func checker[T any](scan func(*wireScanner) (T, bool)) func(*testing.T, []byte, int64, bool) bool {
	return func(t *testing.T, body []byte, limit int64, oneByte bool) bool {
		t.Helper()
		var rd io.Reader = bytes.NewReader(body)
		if oneByte {
			rd = iotest.OneByteReader(rd)
		}
		req := httptest.NewRequest(http.MethodPost, "/", rd)
		got, gotErr := decodeGraphBody(httptest.NewRecorder(), req, limit, scan)

		var want T
		dec := json.NewDecoder(http.MaxBytesReader(httptest.NewRecorder(), io.NopCloser(bytes.NewReader(body)), limit))
		dec.DisallowUnknownFields()
		wantErr := dec.Decode(&want)

		switch {
		case (gotErr == nil) != (wantErr == nil):
			t.Fatalf("body %q limit %d: decode error %v, encoding/json error %v", body, limit, gotErr, wantErr)
		case gotErr != nil && gotErr.Error() != wantErr.Error():
			t.Fatalf("body %q limit %d: error %q, encoding/json %q", body, limit, gotErr, wantErr)
		case gotErr == nil && !sameBits(reflect.ValueOf(got), reflect.ValueOf(want)):
			t.Fatalf("body %q limit %d: decoded %+v, encoding/json %+v", body, limit, got, want)
		}
		s := &wireScanner{b: body}
		_, ok := scan(s)
		return ok && s.end()
	}
}

// sameBits reports whether a and b hold the same decoded value: slices of
// equal length and nil-ness, equal ints, and floats equal by Float64bits,
// so -0 and 0 differ.
func sameBits(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Int:
		return a.Int() == b.Int()
	case reflect.Slice, reflect.Array:
		if a.Kind() == reflect.Slice && a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameBits(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameBits(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	}
	panic("sameBits: unexpected kind " + a.Kind().String())
}

// TestGraphDecodeMatchesJSON runs the differential over the seed bodies at
// a roomy limit and at limits that cut them. It also pins which path each
// seed takes: the accepted ones, and the benchmark-shaped bodies, the
// scanner; the declined ones encoding/json.
func TestGraphDecodeMatchesJSON(t *testing.T) {
	bodies := graphBenchBodies(t)
	for k, sc := range graphSchemas {
		t.Run(sc.name, func(t *testing.T) {
			accepted := append(append([]string{string(bodies[k])}, sc.accepted...), sharedAccepted...)
			declined := append(append([]string{}, sc.declined...), sharedDeclined...)
			for _, v := range append(accepted, declined...) {
				for _, limit := range []int64{1 << 30, int64(len(v)), int64(len(v)) - 1, 3, 0, -1} {
					sc.check(t, []byte(v), limit, false)
				}
			}
			for _, v := range accepted {
				if !sc.check(t, []byte(v), 1<<30, true) {
					t.Errorf("scanner declined %.200q", v)
				}
			}
			for _, v := range declined {
				if sc.check(t, []byte(v), 1<<30, true) {
					t.Errorf("scanner took %q", v)
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

// FuzzGraphDecode is the differential over arbitrary bodies and limits.
func FuzzGraphDecode(f *testing.F) {
	for k, sc := range graphSchemas {
		for _, v := range [][]string{sc.accepted, sc.declined, sharedAccepted, sharedDeclined} {
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
func decodeLoop[T any](tb testing.TB, body []byte, scan func(*wireScanner) (T, bool)) func() T {
	req := httptest.NewRequest(http.MethodPost, "/", nil)
	w := httptest.NewRecorder()
	rb := &replayBody{}
	return func() T {
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
	decode := func() graphIMURequest {
		s.b, s.i = body, 0
		q, ok := scanIMU(s)
		if !ok || !s.end() {
			t.Fatal("scanner declined the IMU body")
		}
		return q
	}
	slices := 1 + len(decode().Windows)
	const fixed = 2
	if got := testing.AllocsPerRun(50, func() { decode() }); got > float64(slices+fixed) {
		t.Fatalf("%.1f allocations per decode, want at most %d slices + %d", got, slices, fixed)
	}
}

func benchGraphDecode[T any](b *testing.B, k int, scan func(*wireScanner) (T, bool)) {
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
