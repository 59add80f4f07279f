package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"hdc/internal/body"
	"hdc/internal/flight"
	"hdc/internal/geom"
	"hdc/internal/graph/nodes"
	"hdc/internal/imu"
	"hdc/internal/ledring"
	"hdc/internal/raster"
	"hdc/internal/recognizer"
	"hdc/internal/sax/store"
	"hdc/internal/scene"
	"hdc/internal/server"
	"hdc/internal/timeseries"
)

// inputs.go generates every workload input from the seed and computes the
// golden answers the served responses are checked against. The oracle calls
// the packages directly (Recognizer.RecognizeWith, ledring, imu, flight), so
// it shares no code with the serving path beyond the packages under test.

// Input shape, recorded in BENCHMARK.json.
const (
	framesPerRequest = 8
	itemsPerRequest  = 16
	framePoolSize    = 96 // distinct frames per seed; requests draw 8 of them
	requestSets      = 64 // distinct request compositions per seed
	deadZoneOneIn    = 8  // one frame in eight comes from the ±90° dead zone
	standoffM        = 3  // horizontal distance of every rendered view
)

// signAzimuths are the served view azimuths (degrees) outside the dead zone.
var signAzimuths = []float64{0, 25, -25, 40, -40}

// frameSpec records how one frame was rendered.
type frameSpec struct {
	sign       body.Sign
	azimuthDeg float64
	altitudeM  float64
	dead       bool
}

// signInputs is the frame side of the sign workloads.
type signInputs struct {
	frames   []*raster.Gray
	specs    []frameSpec
	golden   []server.FrameResult
	requests [][]int // frame indices, framesPerRequest per request
}

// renderFrames renders the seeded frame pool. The mix is fixed and only
// its order and the views vary with the seed, so every seed costs the same:
// exactly one frame in deadZoneOneIn is seen side-on from the ±90° dead
// zone, and the rest cycle through the three signs at each azimuth in
// signAzimuths, at seeded altitudes of 3–5 m. Requests take the frames in
// seeded order, each frame equally often.
func renderFrames(rng *rand.Rand) (*signInputs, error) {
	rend := scene.NewRenderer(scene.Config{})
	signs := body.AllSigns()
	in := &signInputs{}
	for i := 0; i < framePoolSize; i++ {
		sp := frameSpec{
			sign:       signs[i%len(signs)],
			azimuthDeg: signAzimuths[(i/len(signs))%len(signAzimuths)],
			altitudeM:  3 + 2*rng.Float64(),
		}
		if i%deadZoneOneIn == deadZoneOneIn-1 {
			sp.dead = true
			sp.azimuthDeg = []float64{90, -90}[rng.Intn(2)]
		}
		f, err := rend.Render(sp.sign, scene.View{AltitudeM: sp.altitudeM, DistanceM: standoffM, AzimuthDeg: sp.azimuthDeg}, body.Options{}, rng)
		if err != nil {
			return nil, fmt.Errorf("render %+v: %w", sp, err)
		}
		in.frames = append(in.frames, f)
		in.specs = append(in.specs, sp)
	}
	in.requests = evenDraws(rng, framePoolSize, framesPerRequest)
	return in, nil
}

// evenDraws makes requestSets draws of per indices below n, in seeded order,
// using every index equally often (±1): the draws walk seeded permutations.
func evenDraws(rng *rand.Rand, n, per int) [][]int {
	var out [][]int
	var order []int
	for len(out) < requestSets {
		if len(order) < per {
			order = append(order, rng.Perm(n)...)
		}
		out = append(out, order[:per])
		order = order[per:]
	}
	return out
}

// computeGolden recognises every frame with rec directly and keeps the
// expected wire verdicts. Every frame must reach the dictionary (a vision
// failure has no stable wire text to check) and a dead-zone frame must
// answer no_sign; anything else means the generated workload is not the
// one BENCHMARK.json describes. It returns how many frames outside the
// dead zone were recognised as the sign they show.
func (in *signInputs) computeGolden(rec *recognizer.Recognizer) (int, error) {
	sc := recognizer.NewScratch()
	in.golden = make([]server.FrameResult, len(in.frames))
	hits := 0
	for i, f := range in.frames {
		res, err := rec.RecognizeWith(sc, f)
		sp := in.specs[i]
		switch {
		case err != nil && !errors.Is(err, recognizer.ErrNoSign):
			return 0, fmt.Errorf("frame %d (%+v): %w", i, sp, err)
		case sp.dead && err == nil:
			return 0, fmt.Errorf("dead-zone frame %d (%+v) answered %v; want no_sign", i, sp, res.Sign)
		case !sp.dead && err == nil && res.Sign == sp.sign:
			hits++
		}
		in.golden[i] = expectedVerdict(res, err)
	}
	return hits, nil
}

// expectedVerdict is the wire verdict a correct server sends for res, err.
func expectedVerdict(res recognizer.Result, err error) server.FrameResult {
	v := server.FrameResult{OK: res.OK, Label: res.Match.Label, Dist: finite(res.Match.Dist)}
	if res.OK {
		v.Sign = res.Sign.String()
	}
	if err != nil {
		v.Err = server.ErrValueNoSign
	}
	return v
}

// sameVerdict reports whether a served verdict matches the golden one. A
// degraded answer never matches: it comes from the cheap stage-0 path.
func sameVerdict(got, want server.FrameResult) bool {
	return !got.Degraded && got.OK == want.OK && got.Sign == want.Sign &&
		got.Label == want.Label && got.Err == want.Err && got.Dist == want.Dist
}

// finite maps non-finite floats to the wire's -1 sentinel.
func finite(f float64) float64 {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return -1
	}
	return f
}

// buildStore writes the sign_store dictionary into dir: the recogniser's
// reference entries plus seeded smooth perturbations of them under the same
// sign labels, entries in total. The near-duplicates defeat the cascade's
// cheap bounds, so lookups do real exact-alignment work.
func buildStore(dir string, rec *recognizer.Recognizer, entries int, rng *rand.Rand) error {
	db := rec.Database()
	if db == nil {
		return errors.New("store fixture needs the in-memory reference database")
	}
	refs := db.Entries()
	b, err := store.NewBuilder(dir, db.Encoder(), db.SeriesLen(), store.BuilderOptions{})
	if err != nil {
		return err
	}
	for _, e := range refs {
		if err := b.AddSeries(e.Label, e.Series); err != nil {
			return err
		}
	}
	for b.Entries() < entries {
		e := refs[rng.Intn(len(refs))]
		if err := b.AddSeries(e.Label, smoothPerturb(e.Series, rng)); err != nil {
			return err
		}
	}
	return b.Commit()
}

// maxPerturb bounds a near-duplicate's Euclidean distance from its
// reference. Side-on dead-zone frames sit at least 7.3 from every reference
// (measured over 360 seeded dead-zone views), 2.5 beyond the recogniser's
// 4.8 acceptance threshold, so entries within 1.5 of a reference never
// turn a dead-zone frame into a sign.
const maxPerturb = 1.5

// smoothPerturb adds to s a random wave of its three lowest harmonics,
// scaled to a Euclidean norm between maxPerturb/2 and maxPerturb.
func smoothPerturb(s timeseries.Series, rng *rand.Rand) timeseries.Series {
	wave := make([]float64, len(s))
	n := float64(len(s))
	for k := 1; k <= 3; k++ {
		a := rng.NormFloat64() / float64(k)
		ph := 2 * math.Pi * rng.Float64()
		for i := range wave {
			wave[i] += a * math.Sin(2*math.Pi*float64(k)*float64(i)/n+ph)
		}
	}
	norm := 0.0
	for _, v := range wave {
		norm += v * v
	}
	scale := maxPerturb * (0.5 + 0.5*rng.Float64()) / math.Sqrt(norm)
	out := s.Clone()
	for i, v := range wave {
		out[i] += scale * v
	}
	return out
}

// Telemetry wire types: the JSON bodies of /v1/graph/{ledring,imu,flight}
// and their answers, as a client writes them.
type (
	ringWire struct {
		Frames [][]int `json:"frames"`
	}
	ledringRequest struct {
		Rings []ringWire `json:"rings"`
	}
	imuSampleWire struct {
		TS       float64    `json:"t_s"`
		Accel    [3]float64 `json:"accel"`
		GyroZ    float64    `json:"gyro_z"`
		BaroAltM float64    `json:"baro_alt_m"`
	}
	imuRequest struct {
		Windows [][]imuSampleWire `json:"windows"`
	}
	flightSampleWire struct {
		TS         float64    `json:"t_s"`
		Pos        [3]float64 `json:"pos"`
		HeadingDeg float64    `json:"heading_deg"`
	}
	flightRequest struct {
		Trajectories [][]flightSampleWire `json:"trajectories"`
	}
)

// endpoint is one served graph workload with its seeded item pool.
type endpoint struct {
	name  string // graph workload: ledring, imu or flight
	path  string
	items []any // wire items: ringWire, []imuSampleWire or []flightSampleWire
	// golden holds the expected wire answer per item: server.LedringResult,
	// server.IMUResult or server.FlightResult.
	golden []any
}

// telemetryInputs is the telemetry_graph workload: three endpoints and the
// request compositions (endpoint index plus item indices).
type telemetryInputs struct {
	endpoints []*endpoint
	requests  []telemetryRequest
}

type telemetryRequest struct {
	ep    int
	items []int
}

// Per-endpoint item pool sizes.
const (
	ringPoolSize   = 64
	imuPoolSize    = 48
	flightPoolSize = 32
)

// makeTelemetry generates the seeded telemetry items and their golden
// answers. As for frames, the item mix and sizes are fixed and the seed
// varies only values and order. Requests rotate over the endpoints; each
// carries itemsPerRequest items of its endpoint's pool, every item equally
// often.
func makeTelemetry(rng *rand.Rand) (*telemetryInputs, error) {
	rings, err := makeRings(rng)
	if err != nil {
		return nil, err
	}
	imus, err := makeIMUWindows(rng)
	if err != nil {
		return nil, err
	}
	flights, err := makeFlights(rng)
	if err != nil {
		return nil, err
	}
	t := &telemetryInputs{endpoints: []*endpoint{rings, imus, flights}}
	draws := make([][][]int, len(t.endpoints))
	for i, ep := range t.endpoints {
		draws[i] = evenDraws(rng, len(ep.items), itemsPerRequest)
	}
	for i := 0; i < requestSets; i++ {
		ep := i % len(t.endpoints)
		t.requests = append(t.requests, telemetryRequest{ep: ep, items: draws[ep][i/len(t.endpoints)]})
	}
	return t, nil
}

// body builds the JSON request value for r.
func (t *telemetryInputs) body(r telemetryRequest) any {
	ep := t.endpoints[r.ep]
	switch ep.name {
	case "ledring":
		req := ledringRequest{Rings: make([]ringWire, len(r.items))}
		for i, k := range r.items {
			req.Rings[i] = ep.items[k].(ringWire)
		}
		return req
	case "imu":
		req := imuRequest{Windows: make([][]imuSampleWire, len(r.items))}
		for i, k := range r.items {
			req.Windows[i] = ep.items[k].([]imuSampleWire)
		}
		return req
	default:
		req := flightRequest{Trajectories: make([][]flightSampleWire, len(r.items))}
		for i, k := range r.items {
			req.Trajectories[i] = ep.items[k].([]flightSampleWire)
		}
		return req
	}
}

// makeRings draws two-frame LED-ring observations: 14 in 20 navigation
// displays at seeded headings, 3 danger rings and 3 take-off/landing
// pulses, on rings of 10, 12 or 16 LEDs in turn.
func makeRings(rng *rand.Rand) (*endpoint, error) {
	ep := &endpoint{name: "ledring", path: "/v1/graph/ledring"}
	counts := []int{10, 12, 16}
	for i := 0; i < ringPoolSize; i++ {
		r, err := ledring.New(ledring.Options{LEDCount: counts[i%len(counts)]})
		if err != nil {
			return nil, err
		}
		var a, b []ledring.Color
		switch k := i % 20; {
		case k < 14:
			r.SetNavigation(geom.NewHeading(2 * math.Pi * rng.Float64()))
			a, b = r.LEDs(), r.LEDs()
		case k < 17:
			r.SetDanger()
			a, b = r.LEDs(), r.LEDs()
		default:
			p := ledring.PulseTakeOff
			if rng.Intn(2) == 0 {
				p = ledring.PulseLanding
			}
			if err := r.StartPulse(p); err != nil {
				return nil, err
			}
			a = r.LEDs()
			r.TickPulse()
			b = r.LEDs()
		}
		ep.items = append(ep.items, ringWire{Frames: [][]int{colorInts(a), colorInts(b)}})
		ep.golden = append(ep.golden, expectRing(a, b))
	}
	return ep, nil
}

func colorInts(leds []ledring.Color) []int {
	out := make([]int, len(leds))
	for i, c := range leds {
		out[i] = int(c)
	}
	return out
}

// expectRing decodes a two-frame observation with the ledring package.
func expectRing(a, b []ledring.Color) server.LedringResult {
	want := server.LedringResult{
		QuantErrDeg: ledring.HeadingQuantizationErrorDeg(len(a)),
		Danger:      ledring.IsDanger(a),
		Pulse:       ledring.PulseNone.String(),
	}
	if h, err := ledring.DecodeHeading(a); err != nil {
		want.HeadingErr = err.Error()
	} else {
		want.HeadingDeg = h.Deg()
	}
	if p, err := ledring.ClassifyPulse(a, b); err != nil {
		want.PulseErr = err.Error()
	} else {
		want.Pulse = p.String()
	}
	return want
}

// imuScenario is one commanded motion an IMU window is sampled over.
type imuScenario struct {
	rotors bool
	startZ float64
	vel    geom.Vec3
}

var imuScenarios = []imuScenario{
	{rotors: false},           // parked
	{rotors: true, startZ: 5}, // hover
	{rotors: true, startZ: 1, vel: geom.V3(0, 0, 1.5)}, // climb
	{rotors: true, startZ: 8, vel: geom.V3(0, 0, -1)},  // descent
	{rotors: true, startZ: 5, vel: geom.V3(3, 0, 0)},   // translate
}

// imuWindowLen is the samples per IMU window (2.4 s at 50 ms).
const imuWindowLen = 48

// makeIMUWindows samples imu.New sensors over flown drone states: window i
// flies scenario i mod 5, in a seeded direction for the translation, with
// seeded sensor noise and bias.
func makeIMUWindows(rng *rand.Rand) (*endpoint, error) {
	ep := &endpoint{name: "imu", path: "/v1/graph/imu"}
	const dt = 0.05
	for i := 0; i < imuPoolSize; i++ {
		sc := imuScenarios[i%len(imuScenarios)]
		d, err := flight.New(flight.DefaultParams(), geom.V3(0, 0, sc.startZ))
		if err != nil {
			return nil, err
		}
		if sc.rotors {
			d.StartRotors()
		}
		sensor, err := imu.New(imu.Config{}, rng)
		if err != nil {
			return nil, err
		}
		vel := sc.vel
		if vel.X != 0 {
			dir := geom.NewHeading(2 * math.Pi * rng.Float64()).Vec()
			vel = geom.V3(dir.X*vel.X, dir.Y*vel.X, 0)
		}
		win := make([]imuSampleWire, imuWindowLen)
		for i := range win {
			d.Step(dt, vel, 0)
			s := sensor.Sample(dt, d.S, d.RotorsOn())
			win[i] = imuSampleWire{TS: s.T.Seconds(), Accel: [3]float64{s.Accel.X, s.Accel.Y, s.Accel.Z}, GyroZ: s.GyroZ, BaroAltM: s.BaroAltM}
		}
		ep.items = append(ep.items, win)
		ep.golden = append(ep.golden, expectIMU(win))
	}
	return ep, nil
}

// imuWindow converts a wire window to the samples the server decodes.
func imuWindow(win []imuSampleWire) nodes.IMUWindow {
	out := make(nodes.IMUWindow, len(win))
	for i, w := range win {
		out[i] = imu.Sample{
			T:        time.Duration(w.TS * float64(time.Second)),
			Accel:    geom.V3(w.Accel[0], w.Accel[1], w.Accel[2]),
			GyroZ:    w.GyroZ,
			BaroAltM: w.BaroAltM,
		}
	}
	return out
}

// trajectory converts wire flight samples to the trajectory the server
// decodes.
func trajectory(wire []flightSampleWire) flight.Trajectory {
	out := make(flight.Trajectory, len(wire))
	for i, w := range wire {
		out[i] = flight.Sample{
			T:       w.TS,
			Pos:     geom.V3(w.Pos[0], w.Pos[1], w.Pos[2]),
			Heading: geom.NewHeading(w.HeadingDeg * math.Pi / 180),
		}
	}
	return out
}

// expectIMU runs a fresh imu.Detector over the window exactly as the wire
// decodes it.
func expectIMU(win []imuSampleWire) server.IMUResult {
	d := imu.NewDetector()
	prev := imu.StateUnknown
	want := server.IMUResult{Samples: len(win)}
	var st imu.MotionState
	for _, s := range imuWindow(win) {
		st = d.Push(s)
		if st != prev {
			want.Transitions++
			prev = st
		}
	}
	want.State = st.String()
	return want
}

// makeFlights records flight.Executor.Fly trajectories of the four
// communicative patterns in turn, flown from a hovering drone towards
// targets 4 m away in seeded directions. A trajectory flight.Classify
// cannot read is flown again, so every served item has an answer.
func makeFlights(rng *rand.Rand) (*endpoint, error) {
	ep := &endpoint{name: "flight", path: "/v1/graph/flight"}
	d, err := flight.New(flight.DefaultParams(), geom.Vec3{})
	if err != nil {
		return nil, err
	}
	ex := flight.NewExecutor(d)
	if _, err := ex.Fly(flight.PatternTakeOff, geom.Vec3{}); err != nil {
		return nil, err
	}
	pats := flight.CommunicativePatterns()
	for tries := 0; len(ep.items) < flightPoolSize; tries++ {
		if tries > 20*flightPoolSize {
			return nil, errors.New("flight: too many unclassifiable trajectories")
		}
		dir := geom.NewHeading(2 * math.Pi * rng.Float64()).Vec()
		target := geom.V3(d.S.Pos.X+4*dir.X, d.S.Pos.Y+4*dir.Y, 0)
		tr, err := ex.Fly(pats[len(ep.items)%len(pats)], target)
		if err != nil {
			return nil, err
		}
		wire := make([]flightSampleWire, len(tr))
		for i, s := range tr {
			wire[i] = flightSampleWire{TS: s.T, Pos: [3]float64{s.Pos.X, s.Pos.Y, s.Pos.Z}, HeadingDeg: s.Heading.Deg()}
		}
		want, ok := expectFlight(wire)
		if !ok {
			continue
		}
		ep.items = append(ep.items, wire)
		ep.golden = append(ep.golden, want)
	}
	return ep, nil
}

// expectFlight classifies the trajectory exactly as the wire decodes it.
func expectFlight(wire []flightSampleWire) (server.FlightResult, bool) {
	p, _, err := flight.Classify(trajectory(wire))
	if err != nil {
		return server.FlightResult{}, false
	}
	return server.FlightResult{Pattern: p.String()}, true
}
