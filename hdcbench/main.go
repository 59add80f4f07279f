// Command hdcbench is the repository's benchmark: it measures the served
// system from outside, the way an operator sees it, one frame or one graph
// message from wire bytes to verdict.
//
// Run it from the repository root through its script, which builds it from
// source first:
//
//	bash hdcbench/run.sh --workload sign_batch --seed 1 --seconds 40 --trace 0
//
// Workloads (see BENCHMARK.json for why each was chosen and its input shape):
//
//	sign_batch       raw-wire 8-frame batches on /v1/batch and /v1/streams, 9-entry dictionary
//	sign_store       the same frames and routes over a 700-entry sax/store dictionary (storeEntries)
//	telemetry_graph  16-item JSON posts rotating over /v1/graph/{ledring,imu,flight}
//
// The load is a closed loop of two operators in this process against a real
// server.Server on a 127.0.0.1 listener with a two-worker pool. Every input
// comes from --seed, and every verdict is checked against golden answers
// computed by calling the packages directly. With --trace 0 the run reports
// the end-to-end metrics; with --trace 1 it runs a shorter untraced load,
// then the traced ladder (ladder.go), and reports the per-layer metrics and
// the closure of the rungs against the traced request. The last line of
// standard output is one JSON object: correct, attempted, failed, metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"hdc/internal/core"
	"hdc/internal/raster"
	"hdc/internal/sax/store"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "hdcbench: %v\n", err)
		os.Exit(1)
	}
}

// Load shape.
const (
	servedWorkers = 2               // pool workers of the served system
	tracedWorkers = 1               // pool workers of the traced replay
	warmup        = 1 * time.Second // per load phase, not timed
	storeEntries  = 700             // sign_store dictionary size
	setupRuns     = 11              // set-ups timed per run; setup_s is their median
)

// workload names, in BENCHMARK.json order.
var workloadNames = []string{"sign_batch", "sign_store", "telemetry_graph"}

// config is the parsed command line.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	workdir  string
}

func parseFlags(args []string) (config, error) {
	var c config
	var trace int
	fs := flag.NewFlagSet("hdcbench", flag.ContinueOnError)
	fs.StringVar(&c.workload, "workload", "", "workload: sign_batch, sign_store or telemetry_graph")
	fs.Int64Var(&c.seed, "seed", 1, "input seed")
	fs.IntVar(&c.seconds, "seconds", 40, "measured seconds")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced ladder and reports per-layer metrics")
	fs.StringVar(&c.workdir, "workdir", ".bench_build", "directory for fixture files (created, cleaned up)")
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	c.trace = trace == 1
	switch {
	case trace != 0 && trace != 1:
		return c, fmt.Errorf("--trace %d: want 0 or 1", trace)
	case c.seconds < 1:
		return c, fmt.Errorf("--seconds %d: want at least 1", c.seconds)
	}
	for _, w := range workloadNames {
		if w == c.workload {
			return c, nil
		}
	}
	return c, fmt.Errorf("unknown --workload %q (want one of %v)", c.workload, workloadNames)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// fixture is one run's generated inputs.
type fixture struct {
	sign     *signInputs
	reqs     [][]*raster.Gray
	tele     *telemetryInputs
	storeDir string
	hits     int // frames outside the dead zone recognised as their sign
}

// prepare generates the workload's inputs and golden answers; for
// sign_store it also writes the store directory. None of it is timed.
func prepare(c config, dir string) (*fixture, error) {
	rng := rand.New(rand.NewSource(c.seed))
	fx := &fixture{}
	if c.workload == "telemetry_graph" {
		t, err := makeTelemetry(rng)
		fx.tele = t
		return fx, err
	}
	in, err := renderFrames(rng)
	if err != nil {
		return nil, err
	}
	fx.sign, fx.reqs = in, signRequests(in)
	sys, err := core.NewSystem()
	if err != nil {
		return nil, err
	}
	defer sys.Close()
	if c.workload == "sign_store" {
		fx.storeDir = filepath.Join(dir, "signs.store")
		if err := buildStore(fx.storeDir, sys.Rec, storeEntries, rng); err != nil {
			return nil, fmt.Errorf("store fixture: %w", err)
		}
		st, err := store.Open(fx.storeDir, store.Options{})
		if err != nil {
			return nil, err
		}
		defer st.Close()
		if err := sys.Rec.UseDictionary(st); err != nil {
			return nil, err
		}
	}
	fx.hits, err = in.computeGolden(sys.Rec)
	return fx, err
}

// first is the request that ends a set-up. On telemetry it is the
// operators' first request. On the sign workloads it is one frame, frame 0
// (the first sign seen head-on), because the cost of a seed's first 8-frame
// request depends on which frames the seed put in it: on sign_store it took
// 22 ms on one seed and 48 ms on another, which moved setup_s by 45%.
func (fx *fixture) first(ctx context.Context) func(*service) error {
	return func(s *service) error {
		var o outcome
		if fx.tele != nil {
			_, o = telemetryOperator(s, fx.tele, 0)(ctx, 0)
		} else {
			res, err := rawBatch(ctx, s.cli, fx.sign.frames[:1])
			o = checkFrames(res, err, fx.sign, []int{0})
		}
		if o.failed {
			return errors.New("wrong or failed answer")
		}
		return nil
	}
}

// operators builds the two closed-loop operators for the workload.
func (fx *fixture) operators(ctx context.Context, s *service) ([]operator, error) {
	if fx.tele != nil {
		return []operator{telemetryOperator(s, fx.tele, 0), telemetryOperator(s, fx.tele, 1)}, nil
	}
	st, err := streamOperator(ctx, s, fx.sign, fx.reqs, 1)
	if err != nil {
		return nil, err
	}
	return []operator{batchOperator(s, fx.sign, fx.reqs, 0), st}, nil
}

func run(args []string, stdout io.Writer) error {
	c, err := parseFlags(args)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(c.workdir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(c.workdir, "hdcbench-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	ctx := context.Background()

	fx, err := prepare(c, dir)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "hdcbench workload=%s seed=%d seconds=%d trace=%v\n", c.workload, c.seed, c.seconds, c.trace)
	fx.describe(stdout)

	// Set-up is timed setupRuns times, half before the load (the last of
	// those services carries it) and half after, so the median spans the
	// run instead of one moment of a shared machine.
	before := (setupRuns + 1) / 2
	setup, svc, err := setups(ctx, fx, before)
	if err != nil {
		return err
	}

	loadFor := time.Duration(c.seconds) * time.Second
	if c.trace {
		loadFor /= 3
	}
	ops, err := fx.operators(ctx, svc)
	if err != nil {
		_ = svc.close()
		return err
	}
	ls := runLoad(ctx, ops, warmup, loadFor)
	var servedShed, servedSubmitted uint64
	if fx.tele != nil {
		if servedShed, servedSubmitted, err = servedGraphStats(ctx, svc); err != nil {
			_ = svc.close()
			return err
		}
	}
	if err := svc.close(); err != nil {
		return err
	}
	if ls.attempted == 0 || ls.items == 0 {
		return errors.New("no request completed in the timed window")
	}
	after, last, err := setups(ctx, fx, setupRuns-before)
	if err != nil {
		return err
	}
	if err := last.close(); err != nil {
		return err
	}
	setup = append(setup, after...)
	e2e := endToEnd(ls, setup)
	fmt.Fprintf(stdout, "end-to-end, untraced: closed loop of 2 operators, %d pool workers\n", servedWorkers)
	printEndToEnd(stdout, e2e, ls, setup)

	res := result{
		Correct:   ls.failed == 0 && ls.warmFailed == 0,
		Attempted: ls.attempted,
		Failed:    ls.failed,
		Metrics:   make(map[string]metric),
	}
	if !c.trace {
		for _, m := range endToEndMetrics {
			res.Metrics[m.name] = metric{e2e[m.name], m.unit}
		}
		return writeResult(stdout, res)
	}

	l, err := traced(ctx, fx, loadFor*2)
	if err != nil {
		return err
	}
	l.shed += servedShed
	l.submitted += servedSubmitted
	l.refused += ls.refused
	l.degraded += ls.degraded
	itemsPerRequest := float64(ls.items) / float64(ls.attempted)
	perItem := e2e["latency_p50_ms"] * 1e3 / itemsPerRequest
	layers := perLayer(l)
	if fx.storeDir != "" {
		if layers["store.open_ms"], err = storeOpenMs(fx.storeDir, setupRuns); err != nil {
			return err
		}
		l.calls["store.open_ms"] = setupRuns
	}
	printClosure(stdout, l, layers, perItem)
	res.Correct = res.Correct && l.failed == 0
	res.Attempted += l.attempted
	res.Failed += l.failed
	for _, m := range layerMetrics {
		res.Metrics[m.name] = metric{layers[m.name], m.unit}
	}
	return writeResult(stdout, res)
}

// setups times n set-ups of the served stack, closing each but the last,
// which it returns running.
func setups(ctx context.Context, fx *fixture, n int) ([]float64, *service, error) {
	var secs []float64
	var svc *service
	for i := 0; i < n; i++ {
		if svc != nil {
			if err := svc.close(); err != nil {
				return nil, nil, err
			}
		}
		runtime.GC()
		s, d, err := timedSetup(fx.storeDir, servedWorkers, fx.first(ctx))
		if err != nil {
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
		svc = s
		secs = append(secs, d.Seconds())
	}
	return secs, svc, nil
}

// traced runs the ladder on its own service with a one-worker pool.
func traced(ctx context.Context, fx *fixture, dur time.Duration) (*ladder, error) {
	svc, _, err := timedSetup(fx.storeDir, tracedWorkers, fx.first(ctx))
	if err != nil {
		return nil, fmt.Errorf("traced setup: %w", err)
	}
	var l *ladder
	if fx.tele != nil {
		l, err = telemetryLadder(ctx, svc, fx.tele, dur)
	} else {
		l, err = signLadder(ctx, svc, fx.sign, fx.reqs, dur)
	}
	if cerr := svc.close(); err == nil {
		err = cerr
	}
	return l, err
}

// storeOpenMs is the median time of n store.Open calls on the fixture.
func storeOpenMs(dir string, n int) (float64, error) {
	var ms []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		st, err := store.Open(dir, store.Options{})
		d := time.Since(t0)
		if err != nil {
			return 0, err
		}
		if err := st.Close(); err != nil {
			return 0, err
		}
		ms = append(ms, float64(d.Nanoseconds())/1e6)
	}
	return median(ms), nil
}

// End-to-end metric names and units, in BENCHMARK.json order. error_ratio
// is reported in the text and carried by the result's attempted and failed
// counts: it is 0 on a correct run, which no relative bound can hold.
var endToEndMetrics = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"items_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"cpu_ms_per_item", "ms"},
	{"alloc_kb_per_item", "KB"},
	{"mem_peak_mb", "MB"},
}

func endToEnd(ls loadStats, setup []float64) map[string]float64 {
	items := float64(ls.items)
	rate, cpu := ls.intervalMedians()
	return map[string]float64{
		"setup_s":           median(setup),
		"items_per_s":       rate,
		"latency_p50_ms":    ms(percentile(ls.lat, 0.50)),
		"latency_p99_ms":    ms(ls.p99),
		"error_ratio":       float64(ls.failed) / float64(ls.attempted),
		"cpu_ms_per_item":   cpu,
		"alloc_kb_per_item": float64(ls.allocBytes) / 1024 / items,
		"mem_peak_mb":       float64(peakRSS()) / (1 << 20),
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// beyondP99 is how many of n samples lie beyond their nearest-rank p99.
func beyondP99(n int) int { return n - int(math.Ceil(0.99*float64(n))) }

// percentile is the nearest-rank percentile of sorted durations.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(float64(len(sorted))*p+0.999999) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func printEndToEnd(w io.Writer, e2e map[string]float64, ls loadStats, setup []float64) {
	block := len(ls.lat) / ls.p99Blocks
	samples := map[string]string{
		"setup_s":           fmt.Sprintf("n=%d set-ups, median; range %.4f–%.4f s", len(setup), slices.Min(setup), slices.Max(setup)),
		"items_per_s":       fmt.Sprintf("n=%d items in %.2f s, median of %d one-second intervals (quartiles %s)", ls.items, ls.window.Seconds(), len(ls.intervalItems), quartiles(ls.intervalItems)),
		"latency_p50_ms":    fmt.Sprintf("n=%d requests", len(ls.lat)),
		"latency_p99_ms":    fmt.Sprintf("n=%d requests, median p99 of %d blocks of >=%d requests, >=%d beyond each p99; whole-run p99 %.4f ms", len(ls.lat), ls.p99Blocks, block, beyondP99(block), ms(percentile(ls.lat, 0.99))),
		"error_ratio":       fmt.Sprintf("n=%d requests: %d failed, %d refused, %d degraded slots", ls.attempted, ls.failed, ls.refused, ls.degraded),
		"cpu_ms_per_item":   fmt.Sprintf("n=%d items, %.3f s CPU, median of %d one-second intervals", ls.items, ls.cpu.Seconds(), len(ls.intervalCPU)),
		"alloc_kb_per_item": fmt.Sprintf("n=%d items", ls.items),
		"mem_peak_mb":       "process high-water RSS",
	}
	rows := append(append([]struct{ name, unit string }(nil), endToEndMetrics[:4]...), struct{ name, unit string }{"error_ratio", "ratio"})
	rows = append(rows, endToEndMetrics[4:]...)
	for _, m := range rows {
		fmt.Fprintf(w, "  %-20s %14.4f %-6s %s\n", m.name, e2e[m.name], m.unit, samples[m.name])
	}
	fmt.Fprintf(w, "  server.refused=%d server.degraded=%d\n", ls.refused, ls.degraded)
}

// perLayer turns the ladder into the per-layer metrics.
func perLayer(l *ladder) map[string]float64 {
	out := make(map[string]float64)
	for _, m := range layerMetrics {
		out[m.name] = l.p50(m.name)
	}
	if l.scanned > 0 {
		out["sax.exact_ratio"] = float64(l.exactEvals) / float64(l.scanned)
	}
	if l.recFrames > 0 {
		out["recognizer.alloc_b"] = float64(l.recAlloc) / float64(l.recFrames)
	}
	if l.submitted > 0 {
		out["graph.shed_ratio"] = float64(l.shed) / float64(l.submitted)
	}
	out["server.refused"] = float64(l.refused)
	out["server.degraded"] = float64(l.degraded)
	req := l.p50("trace.request_us")
	sum := 0.0
	for _, r := range closureRungs {
		sum += l.p50(r)
	}
	out["unattributed_us"] = req - sum
	out["trace.overhead_us"] = req - l.p50("trace.bare_us")
	return out
}

// printClosure is the closure report: every rung's per-item p50 with its
// call count, their sum, the unattributed rest, the traced request beside
// the bare one on the same service, and the untraced closed loop's request.
func printClosure(w io.Writer, l *ladder, layers map[string]float64, untracedPerItem float64) {
	fmt.Fprintf(w, "traced ladder: %d requests (%d traced, %d bare), one operator, %d pool worker; per item, p50 over calls\n",
		l.attempted, l.calls["trace.request_us"], l.calls["trace.bare_us"], tracedWorkers)
	sum := 0.0
	for _, r := range closureRungs {
		v := l.p50(r)
		sum += v
		fmt.Fprintf(w, "  %-24s %12.2f us  calls=%d\n", r, v, l.calls[r])
	}
	fmt.Fprintf(w, "  %-24s %12.2f us\n", "sum of rungs", sum)
	fmt.Fprintf(w, "  %-24s %12.2f us\n", "unattributed_us", layers["unattributed_us"])
	fmt.Fprintf(w, "  %-24s %12.2f us  calls=%d\n", "traced request p50", l.p50("trace.request_us"), l.calls["trace.request_us"])
	fmt.Fprintf(w, "  %-24s %12.2f us  calls=%d  (same requests and service, no ladder around them)\n", "bare request p50", l.p50("trace.bare_us"), l.calls["trace.bare_us"])
	fmt.Fprintf(w, "  %-24s %12.2f us  (traced minus bare, not folded into any layer)\n", "tracing overhead", layers["trace.overhead_us"])
	fmt.Fprintf(w, "  %-24s %12.2f us  (latency_p50_ms per item: 2 operators, %d pool workers; a load-shape difference, not overhead)\n",
		"untraced closed-loop p50", untracedPerItem, servedWorkers)
	fmt.Fprintln(w, "per-layer metrics:")
	for _, m := range layerMetrics {
		fmt.Fprintf(w, "  %-24s %14.4f %-5s calls=%d\n", m.name, layers[m.name], m.unit, callCount(l, m.name))
	}
}

// callCount is how many calls a per-layer metric summarises.
func callCount(l *ladder, name string) int {
	switch name {
	case "sax.exact_ratio", "recognizer.alloc_b":
		return l.recFrames
	case "graph.shed_ratio":
		return int(l.submitted)
	case "unattributed_us", "trace.overhead_us", "server.refused", "server.degraded":
		return l.calls["trace.request_us"]
	}
	return l.calls[name]
}

func writeResult(w io.Writer, res result) error {
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// describe prints the generated input shape.
func (fx *fixture) describe(w io.Writer) {
	if fx.tele != nil {
		for _, ep := range fx.tele.endpoints {
			fmt.Fprintf(w, "input: %s pool of %d items\n", ep.path, len(ep.items))
		}
		fmt.Fprintf(w, "input: %d requests of %d items, rotating over the endpoints\n", len(fx.tele.requests), itemsPerRequest)
		return
	}
	dead := 0
	for _, sp := range fx.sign.specs {
		if sp.dead {
			dead++
		}
	}
	dict := "in-memory, 9 entries"
	if fx.storeDir != "" {
		dict = fmt.Sprintf("sax/store, %d entries", storeEntries)
	}
	fmt.Fprintf(w, "input: %d frames (%d from the ±90° dead zone), %d requests of %d frames, dictionary %s\n",
		len(fx.sign.frames), dead, len(fx.sign.requests), framesPerRequest, dict)
	fmt.Fprintf(w, "oracle: %d of %d frames outside the dead zone recognised as the sign shown; every dead-zone frame answers no_sign\n",
		fx.hits, len(fx.sign.frames)-dead)
}

// quartiles renders the first and third quartile of xs.
func quartiles(xs []float64) string {
	if len(xs) == 0 {
		return "none"
	}
	s := append([]float64(nil), xs...)
	slices.Sort(s)
	return fmt.Sprintf("%.1f–%.1f", s[len(s)/4], s[len(s)*3/4])
}
