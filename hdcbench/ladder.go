package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strconv"
	"time"

	"hdc/internal/graph"
	"hdc/internal/graph/nodes"
	"hdc/internal/ledring"
	"hdc/internal/pipeline"
	"hdc/internal/raster"
	"hdc/internal/recognizer"
	"hdc/internal/sax"
	"hdc/internal/server"
	"hdc/internal/server/client"
	"hdc/internal/vision"
)

// ladder.go is the traced run. It replays the workload's request sequence
// one request at a time and, for every request, times each layer's public
// entry point on the same inputs: a ladder of calls, each rung containing
// the one below.
//
//	client round trip (wire encode + HTTP)  ⊇  Server.ServeHTTP (in memory)
//	  ⊇  pool: System.RecognizeBatchContext, or a pipeline stream
//	       ⊇  Recognizer.RecognizeWith per frame
//	            ⊇  Binarize, Clean, ExtractSignatureNorm, EncodeZ, LookupKZWith
//	  ⊇  graph: Graph.Process  ⊇  the node functions called directly
//
// A rung's self time is its duration minus the rung below. The spans are
// taken here, around the calls, not inside the program. The traced service
// has a one-worker pool and one operator, so every rung runs serially and
// the rungs nest in wall time.
//
// The replay alternates blocks of ladderBlock requests: a bare block sends
// requests through the same code with nothing run between them, then a
// traced block sends the same requests, each followed by its rungs. Both
// blocks have the same inputs, routes and service, so the gap between their
// request p50s, trace.overhead_us, is what the ladder does to the request
// it traces.
const ladderBlock = 8

// slot maps the j-th replayed request to its index in a request sequence of
// n and reports whether it is sent bare.
func slot(j, n int) (r int, bare bool) {
	b := j / ladderBlock
	return ((b/2)*ladderBlock + j%ladderBlock) % n, b%2 == 0
}

// more reports whether the replay goes on after j requests: until the
// deadline, and always to the end of a traced block.
func more(j int, deadline time.Time) bool {
	return j == 0 || j%(2*ladderBlock) != 0 || time.Now().Before(deadline)
}

// Per-layer metric names and units, in report order.
var layerMetrics = []struct{ name, unit string }{
	{"vision.binarize_us", "us"},
	{"vision.morph_us", "us"},
	{"vision.contour_us", "us"},
	{"sax.encode_us", "us"},
	{"sax.lookup_us", "us"},
	{"sax.exact_ratio", "ratio"},
	{"store.open_ms", "ms"},
	{"recognizer.self_us", "us"},
	{"recognizer.alloc_b", "B"},
	{"pipeline.dispatch_us", "us"},
	{"graph.node_us", "us"},
	{"graph.hop_us", "us"},
	{"graph.shed_ratio", "ratio"},
	{"server.handler_self_us", "us"},
	{"wire.encode_us", "us"},
	{"http.transport_us", "us"},
	{"unattributed_us", "us"},
	{"server.refused", "count"},
	{"server.degraded", "count"},
	{"trace.request_us", "us"},
	{"trace.bare_us", "us"},
	{"trace.overhead_us", "us"},
}

// closureRungs are the self-time rungs whose per-item p50s add up, with
// unattributed_us, to the traced request. graph.self_us is the graph rung's
// whole self time per item (hop_us × hops).
var closureRungs = []string{
	"wire.encode_us", "http.transport_us", "server.handler_self_us",
	"pipeline.dispatch_us", "recognizer.self_us",
	"vision.binarize_us", "vision.morph_us", "vision.contour_us",
	"sax.encode_us", "sax.lookup_us",
	"graph.self_us", "graph.node_us",
}

// ladder accumulates the traced run's samples and counters. Every rung
// gets one sample per request: its time in that request divided by the
// request's items, so per-frame stages are summed over the request's frames
// first and every rung's p50 is on the same per-item footing as the
// request's.
type ladder struct {
	samples                              map[string][]float64 // µs per item
	calls                                map[string]int       // calls of the rung's entry point
	exactEvals, scanned                  int
	recAlloc                             uint64
	recFrames                            int
	attempted, failed, refused, degraded int
	shed, submitted                      uint64
}

func newLadder() *ladder {
	return &ladder{samples: make(map[string][]float64), calls: make(map[string]int)}
}

// add records one request's time d in a rung that served items items over
// calls calls.
func (l *ladder) add(name string, d time.Duration, items, calls int) {
	l.samples[name] = append(l.samples[name], float64(d.Nanoseconds())/1e3/float64(items))
	l.calls[name] += calls
}

func (l *ladder) record(o outcome) {
	l.attempted++
	if o.failed {
		l.failed++
	}
	if o.refused {
		l.refused++
	}
	l.degraded += o.degraded
}

// p50 is the median per-item sample of a rung, 0 when the workload never
// reaches the layer.
func (l *ladder) p50(name string) float64 {
	return median(l.samples[name])
}

// rawRequest builds the in-memory octet-stream request ServeHTTP replays.
func rawRequest(path string, w, h, n int, payload []byte) *http.Request {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(payload))
	req.Header.Set("Content-Type", "application/octet-stream")
	req.Header.Set("X-Frame-Width", strconv.Itoa(w))
	req.Header.Set("X-Frame-Height", strconv.Itoa(h))
	req.Header.Set("X-Frame-Count", strconv.Itoa(n))
	return req
}

// signLadder traces the sign workloads: requests alternate between the
// batch route and one stream session, like the two untraced operators.
// A request's route follows its index, so bare and traced blocks match.
func signLadder(ctx context.Context, svc *service, in *signInputs, reqs [][]*raster.Gray, dur time.Duration) (*ladder, error) {
	rec := svc.sys.Rec
	cfg := rec.Config()
	dict := rec.Dictionary()
	enc := dict.Encoder()
	rsc := recognizer.NewScratch()
	vs := vision.NewScratch()
	lk := sax.NewLookupScratch()
	var topk [4]sax.Match
	var frames raster.Pool

	hst, err := svc.cli.OpenStream(ctx)
	if err != nil {
		return nil, fmt.Errorf("open stream: %w", err)
	}
	pst, err := svc.sys.NewStream()
	if err != nil {
		return nil, err
	}
	defer pst.Close()

	l := newLadder()
	var ms runtime.MemStats
	deadline := time.Now().Add(dur)
	for j := 0; more(j, deadline); j++ {
		r, bare := slot(j, len(reqs))
		fs := reqs[r]
		n := len(fs)
		stream := r%2 == 1
		path := "/v1/batch"
		if stream {
			path = "/v1/streams/" + hst.ID + "/frames"
		}

		// The request, bare or traced: wire encode plus the loopback round
		// trip.
		t0 := time.Now()
		w, h, payload, err := client.EncodeRaw(fs)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		var res []server.FrameResult
		if stream {
			res, err = hst.SubmitRaw(ctx, w, h, n, payload)
		} else {
			res, err = svc.cli.RawBatch(ctx, w, h, n, payload)
		}
		t2 := time.Now()
		o := checkFrames(res, err, in, in.requests[r])
		if bare {
			l.record(o)
			l.add("trace.bare_us", t2.Sub(t0), n, 1)
			continue
		}

		// Server rung: the same bytes through ServeHTTP in memory.
		req := rawRequest(path, w, h, n, payload)
		rr := httptest.NewRecorder()
		t3 := time.Now()
		svc.srv.ServeHTTP(rr, req)
		t4 := time.Now()
		if oi := checkRecorded(rr, in, in.requests[r]); oi.failed {
			o.failed = true
		}

		// Pool rung: copies of the frames, handed to the pool, which
		// recycles them.
		owned := make([]*raster.Gray, n)
		for i, f := range fs {
			owned[i] = frames.Get(f.W, f.H)
			copy(owned[i].Pix, f.Pix)
		}
		t5 := time.Now()
		if stream {
			err = poolStream(ctx, pst, owned, frames.Put)
		} else {
			_, _, err = svc.sys.RecognizeBatchContext(ctx, owned, frames.Put)
		}
		t6 := time.Now()
		if err != nil {
			return nil, fmt.Errorf("pool rung: %w", err)
		}

		// Recognizer rung, per frame, with its allocation.
		runtime.ReadMemStats(&ms)
		alloc0 := ms.TotalAlloc
		var recSum time.Duration
		for _, f := range fs {
			ta := time.Now()
			_, _ = rec.RecognizeWith(rsc, f)
			recSum += time.Since(ta)
		}
		runtime.ReadMemStats(&ms)
		l.recAlloc += ms.TotalAlloc - alloc0
		l.recFrames += n

		// Stage rungs, per frame.
		var bin, morph, contour, encode, lookup time.Duration
		for _, f := range fs {
			ta := time.Now()
			mask := vs.Binarize(f)
			tb := time.Now()
			mask = vs.Clean(mask, cfg.MorphRadius)
			tc := time.Now()
			sig, _, _, err := vs.ExtractSignatureNorm(mask, cfg.SignatureLen, cfg.Normalize)
			td := time.Now()
			if err != nil {
				return nil, fmt.Errorf("contour rung: %w", err)
			}
			z := sig.ZNormalize()
			te := time.Now()
			word, err := enc.EncodeZ(z)
			tf := time.Now()
			if err != nil {
				return nil, fmt.Errorf("encode rung: %w", err)
			}
			if _, err := dict.LookupKZWith(lk, z, word, 4, topk[:0]); err != nil {
				return nil, fmt.Errorf("lookup rung: %w", err)
			}
			tg := time.Now()
			st := lk.Stats()
			l.exactEvals += st.ExactEvals
			l.scanned += st.Entries
			bin += tb.Sub(ta)
			morph += tc.Sub(tb)
			contour += td.Sub(tc)
			encode += tf.Sub(te)
			lookup += tg.Sub(tf)
		}

		l.record(o)
		l.add("trace.request_us", t2.Sub(t0), n, 1)
		l.add("wire.encode_us", t1.Sub(t0), n, 1)
		l.add("http.transport_us", t2.Sub(t1)-t4.Sub(t3), n, 1)
		l.add("server.handler_self_us", t4.Sub(t3)-t6.Sub(t5), n, 1)
		l.add("pipeline.dispatch_us", t6.Sub(t5)-recSum, n, 1)
		l.add("recognizer.self_us", recSum-(bin+morph+contour+encode+lookup), n, n)
		l.add("vision.binarize_us", bin, n, n)
		l.add("vision.morph_us", morph, n, n)
		l.add("vision.contour_us", contour, n, n)
		l.add("sax.encode_us", encode, n, n)
		l.add("sax.lookup_us", lookup, n, n)
	}
	return l, nil
}

// poolStream pushes frames through an ordered pipeline stream and collects
// their results, recycling each frame as it comes back.
func poolStream(ctx context.Context, st *pipeline.Stream, frames []*raster.Gray, recycle func(*raster.Gray)) error {
	errc := make(chan error, 1)
	go func() {
		for _, f := range frames {
			if _, err := st.SubmitContext(ctx, f); err != nil {
				errc <- err
				return
			}
		}
		errc <- nil
	}()
	for got := 0; got < len(frames); {
		select {
		case r, ok := <-st.Results():
			if !ok {
				return pipeline.ErrStreamClosed
			}
			recycle(r.Frame)
			got++
		case err := <-errc:
			if err != nil {
				return err
			}
			errc = nil
		}
	}
	if errc != nil {
		return <-errc
	}
	return nil
}

// checkRecorded checks an in-memory sign answer like a served one.
func checkRecorded(rr *httptest.ResponseRecorder, in *signInputs, idx []int) outcome {
	if rr.Code != http.StatusOK {
		return outcome{failed: true}
	}
	var out struct {
		Results []server.FrameResult `json:"results"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &out); err != nil {
		return outcome{failed: true}
	}
	return checkFrames(out.Results, nil, in, idx)
}

// tracedEndpoint is one graph endpoint's traced-run state: a graph built
// from the served spec on the traced pool, the node functions it runs, and
// the items decoded the way the server decodes them.
type tracedEndpoint struct {
	g     *graph.Graph
	procs []graph.Proc
	vals  []any
}

func buildTracedEndpoints(svc *service, t *telemetryInputs) ([]*tracedEndpoint, error) {
	pool, err := svc.sys.Pool()
	if err != nil {
		return nil, err
	}
	var out []*tracedEndpoint
	for _, ep := range t.endpoints {
		var spec graph.Spec
		switch ep.name {
		case "ledring":
			spec = nodes.LedringSpec()
		case "imu":
			spec = nodes.IMUSpec()
		default:
			spec = nodes.FlightSpec()
		}
		g, err := graph.Build(spec, pool, graph.Config{})
		if err != nil {
			for _, te := range out {
				te.g.Close()
			}
			return nil, err
		}
		te := &tracedEndpoint{g: g}
		for _, n := range spec.Nodes {
			te.procs = append(te.procs, n.Proc)
		}
		for _, it := range ep.items {
			te.vals = append(te.vals, decodeItem(it))
		}
		out = append(out, te)
	}
	return out, nil
}

// decodeItem converts a wire item to the value the server hands its graph.
func decodeItem(it any) any {
	switch v := it.(type) {
	case ringWire:
		frames := make([][]ledring.Color, len(v.Frames))
		for i, f := range v.Frames {
			frames[i] = make([]ledring.Color, len(f))
			for j, c := range f {
				frames[i][j] = ledring.Color(c)
			}
		}
		return nodes.LedringInput{Frames: frames}
	case []imuSampleWire:
		return imuWindow(v)
	default:
		return trajectory(it.([]flightSampleWire))
	}
}

// telemetryLadder traces telemetry_graph: the request sequence of the two
// untraced operators, interleaved.
func telemetryLadder(ctx context.Context, svc *service, t *telemetryInputs, dur time.Duration) (*ladder, error) {
	eps, err := buildTracedEndpoints(svc, t)
	if err != nil {
		return nil, err
	}
	defer func() {
		for _, te := range eps {
			te.g.Close()
		}
	}()
	l := newLadder()
	deadline := time.Now().Add(dur)
	for j := 0; more(j, deadline); j++ {
		ri, bare := slot(j, len(t.requests))
		r := t.requests[ri]
		ep, te := t.endpoints[r.ep], eps[r.ep]
		n := len(r.items)

		// The request, bare or traced: JSON encode plus the loopback round
		// trip.
		t0 := time.Now()
		body, err := json.Marshal(t.body(r))
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		resp, err := postJSON(ctx, svc.hc, svc.base+ep.path, body)
		var o outcome
		if err != nil {
			o = outcome{failed: true}
		} else {
			o = decodeTelemetry(resp, ep, r.items)
			resp.Body.Close()
		}
		t2 := time.Now()
		if bare {
			l.record(o)
			l.add("trace.bare_us", t2.Sub(t0), n, 1)
			continue
		}

		// Server rung.
		req := httptest.NewRequest(http.MethodPost, ep.path, bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rr := httptest.NewRecorder()
		t3 := time.Now()
		svc.srv.ServeHTTP(rr, req)
		t4 := time.Now()
		if oi := decodeTelemetry(rr.Result(), ep, r.items); oi.failed {
			o.failed = true
		}

		// Graph rung.
		in := make([]graph.Input, n)
		for i, k := range r.items {
			in[i] = graph.Input{Value: te.vals[k]}
		}
		t5 := time.Now()
		out, err := te.g.Process(ctx, in)
		t6 := time.Now()
		if err != nil {
			return nil, fmt.Errorf("graph rung: %w", err)
		}
		for _, oo := range out {
			if oo.Err != nil {
				return nil, fmt.Errorf("graph rung: %w", oo.Err)
			}
		}

		// Node rung: the node functions called directly, per item.
		var nodeSum time.Duration
		for _, k := range r.items {
			m := graph.Msg{Value: te.vals[k]}
			ta := time.Now()
			for _, p := range te.procs {
				if err := p(nil, &m); err != nil {
					return nil, fmt.Errorf("node rung: %w", err)
				}
			}
			nodeSum += time.Since(ta)
		}

		l.record(o)
		graphSelf := t6.Sub(t5) - nodeSum
		l.add("trace.request_us", t2.Sub(t0), n, 1)
		l.add("wire.encode_us", t1.Sub(t0), n, 1)
		l.add("http.transport_us", t2.Sub(t1)-t4.Sub(t3), n, 1)
		l.add("server.handler_self_us", t4.Sub(t3)-t6.Sub(t5), n, 1)
		l.add("graph.node_us", nodeSum, n, n*len(te.procs))
		l.add("graph.self_us", graphSelf, n, 1)
		l.add("graph.hop_us", graphSelf, n*len(te.procs), 1)
	}
	for _, te := range eps {
		st := te.g.Stats()
		l.shed += st.Shed
		l.submitted += st.Submitted
	}
	return l, nil
}

// servedGraphStats reads GET /v1/graph for the shed accounting of the
// graphs the untraced load ran through.
func servedGraphStats(ctx context.Context, svc *service) (shed, submitted uint64, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, svc.base+"/v1/graph", nil)
	if err != nil {
		return 0, 0, err
	}
	resp, err := svc.hc.Do(req)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, 0, errors.New("GET /v1/graph: " + resp.Status)
	}
	var idx struct {
		Graphs []graph.Stats `json:"graphs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&idx); err != nil {
		return 0, 0, err
	}
	for _, g := range idx.Graphs {
		shed += g.Shed
		submitted += g.Submitted
	}
	return shed, submitted, nil
}

// median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
