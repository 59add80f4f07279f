package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"hdc/internal/raster"
	"hdc/internal/server"
	"hdc/internal/server/client"
)

// load.go is the untraced closed loop: each operator sends its next request
// only after the verdicts of the previous one are back, and checks every
// verdict against the golden answers.

// outcome is what one request delivered.
type outcome struct {
	items    int  // verdicts delivered
	failed   bool // any slot wrong, degraded, refused or missing
	refused  bool // answered 429 or 503
	degraded int  // slots marked degraded
}

// operator sends request k of its sequence and returns the round-trip time
// at the client (encode, send, receive, decode) and the checked outcome.
type operator func(ctx context.Context, k int) (time.Duration, outcome)

// signRequests resolves the request compositions to frame slices once, so
// the loop only encodes.
func signRequests(in *signInputs) [][]*raster.Gray {
	out := make([][]*raster.Gray, len(in.requests))
	for i, idx := range in.requests {
		for _, k := range idx {
			out[i] = append(out[i], in.frames[k])
		}
	}
	return out
}

// batchOperator posts raw-wire batches to /v1/batch.
func batchOperator(s *service, in *signInputs, reqs [][]*raster.Gray, phase int) operator {
	return func(ctx context.Context, k int) (time.Duration, outcome) {
		r := (2*k + phase) % len(reqs)
		t0 := time.Now()
		res, err := rawBatch(ctx, s.cli, reqs[r])
		lat := time.Since(t0)
		return lat, checkFrames(res, err, in, in.requests[r])
	}
}

func rawBatch(ctx context.Context, c *client.Client, frames []*raster.Gray) ([]server.FrameResult, error) {
	w, h, payload, err := client.EncodeRaw(frames)
	if err != nil {
		return nil, err
	}
	return c.RawBatch(ctx, w, h, len(frames), payload)
}

// streamOperator submits raw payloads to one /v1/streams session.
func streamOperator(ctx context.Context, s *service, in *signInputs, reqs [][]*raster.Gray, phase int) (operator, error) {
	st, err := s.cli.OpenStream(ctx)
	if err != nil {
		return nil, fmt.Errorf("open stream: %w", err)
	}
	return func(ctx context.Context, k int) (time.Duration, outcome) {
		r := (2*k + phase) % len(reqs)
		t0 := time.Now()
		res, err := submitRaw(ctx, st, reqs[r])
		lat := time.Since(t0)
		return lat, checkFrames(res, err, in, in.requests[r])
	}, nil
}

func submitRaw(ctx context.Context, st *client.Stream, frames []*raster.Gray) ([]server.FrameResult, error) {
	w, h, payload, err := client.EncodeRaw(frames)
	if err != nil {
		return nil, err
	}
	return st.SubmitRaw(ctx, w, h, len(frames), payload)
}

// isRefusal reports a 429 admission refusal or a 503 draining answer.
func isRefusal(err error) bool {
	var apiErr *client.APIError
	return errors.Is(err, client.ErrDraining) ||
		(errors.As(err, &apiErr) && apiErr.Status == http.StatusTooManyRequests)
}

// checkFrames compares one sign request's verdicts with the golden ones.
func checkFrames(res []server.FrameResult, err error, in *signInputs, idx []int) outcome {
	if err != nil {
		return outcome{failed: true, refused: isRefusal(err)}
	}
	o := outcome{items: len(res), failed: len(res) != len(idx)}
	for i := 0; i < len(res) && i < len(idx); i++ {
		if res[i].Degraded {
			o.degraded++
		}
		if !sameVerdict(res[i], in.golden[idx[i]]) {
			o.failed = true
		}
	}
	return o
}

// telemetryOperator posts JSON item batches, rotating over the graph
// endpoints.
func telemetryOperator(s *service, t *telemetryInputs, phase int) operator {
	return func(ctx context.Context, k int) (time.Duration, outcome) {
		r := t.requests[(2*k+phase)%len(t.requests)]
		t0 := time.Now()
		body, err := json.Marshal(t.body(r))
		if err != nil {
			return time.Since(t0), outcome{failed: true}
		}
		resp, err := postJSON(ctx, s.hc, s.base+t.endpoints[r.ep].path, body)
		if err != nil {
			return time.Since(t0), outcome{failed: true}
		}
		defer resp.Body.Close()
		o := decodeTelemetry(resp, t.endpoints[r.ep], r.items)
		return time.Since(t0), o
	}
}

func postJSON(ctx context.Context, hc *http.Client, url string, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return hc.Do(req)
}

// decodeTelemetry reads one graph endpoint answer and checks it.
func decodeTelemetry(resp *http.Response, ep *endpoint, items []int) outcome {
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return outcome{failed: true, refused: resp.StatusCode == http.StatusTooManyRequests ||
			resp.StatusCode == http.StatusServiceUnavailable}
	}
	switch ep.name {
	case "ledring":
		return checkItems[server.LedringResult](resp.Body, ep, items)
	case "imu":
		return checkItems[server.IMUResult](resp.Body, ep, items)
	default:
		return checkItems[server.FlightResult](resp.Body, ep, items)
	}
}

// checkItems decodes {"results": [...]} and compares slot by slot.
func checkItems[T comparable](r io.Reader, ep *endpoint, items []int) outcome {
	var out struct {
		Results []T `json:"results"`
	}
	if err := json.NewDecoder(r).Decode(&out); err != nil {
		return outcome{failed: true}
	}
	o := outcome{items: len(out.Results), failed: len(out.Results) != len(items)}
	for i := 0; i < len(out.Results) && i < len(items); i++ {
		if want, _ := ep.golden[items[i]].(T); out.Results[i] != want {
			o.failed = true
		}
	}
	return o
}

// loadStats is the untraced run's account.
type loadStats struct {
	attempted, failed, refused, degraded int
	warmFailed                           int
	items                                int
	lat                                  []time.Duration // per request, sorted
	window                               time.Duration
	cpu                                  time.Duration
	allocBytes                           uint64

	// Per one-second interval of the window: items completed and process
	// CPU time. Their medians are steadier than whole-window means on a
	// shared machine, where a neighbour's burst stalls a few seconds.
	intervalItems []float64
	intervalCPU   []time.Duration

	// p99 is the median of the p99s of p99Blocks consecutive blocks of
	// requests, each of at least p99Block requests.
	p99       time.Duration
	p99Blocks int
}

// completion is one finished request: when it was sent and when it came
// back (since the window start), its round trip, and how many verdicts it
// delivered.
type completion struct {
	sent, back, lat time.Duration
	items           int
}

// intervalMedians returns the median items per second and CPU milliseconds
// per item over the window's whole one-second intervals, or the
// whole-window figures when the window is shorter than two intervals.
func (st loadStats) intervalMedians() (itemsPerS, cpuMsPerItem float64) {
	if len(st.intervalItems) < 2 {
		return float64(st.items) / st.window.Seconds(), ms(st.cpu) / float64(st.items)
	}
	rate := make([]float64, 0, len(st.intervalItems))
	cpu := make([]float64, 0, len(st.intervalItems))
	for i, n := range st.intervalItems {
		rate = append(rate, n)
		if n > 0 {
			cpu = append(cpu, ms(st.intervalCPU[i])/n)
		}
	}
	return median(rate), median(cpu)
}

// runLoad runs the operators concurrently: a warm-up of at least warm (and
// two requests each) that is not counted, then the timed window of dur.
// Requests still in flight at the deadline finish and count; the window
// ends when the last one returns.
func runLoad(ctx context.Context, ops []operator, warm, dur time.Duration) loadStats {
	next := make([]int, len(ops))
	var st loadStats
	var done []completion
	var mu sync.Mutex
	phase := func(start, deadline time.Time, minReqs int, timed bool) {
		var wg sync.WaitGroup
		for i, op := range ops {
			wg.Add(1)
			go func(i int, op operator) {
				defer wg.Done()
				var ends []completion
				var local loadStats
				for n := 0; n < minReqs || time.Now().Before(deadline); n++ {
					sent := time.Since(start)
					d, o := op(ctx, next[i])
					next[i]++
					ends = append(ends, completion{sent: sent, back: time.Since(start), lat: d, items: o.items})
					local.attempted++
					local.items += o.items
					local.degraded += o.degraded
					if o.refused {
						local.refused++
					}
					if o.failed {
						local.failed++
					}
				}
				mu.Lock()
				defer mu.Unlock()
				if !timed {
					st.warmFailed += local.failed
					return
				}
				done = append(done, ends...)
				st.attempted += local.attempted
				st.items += local.items
				st.failed += local.failed
				st.refused += local.refused
				st.degraded += local.degraded
			}(i, op)
		}
		wg.Wait()
	}
	warmStart := time.Now()
	phase(warmStart, warmStart.Add(warm), 2, false)
	runtime.GC()

	cpu0 := cpuTime()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	alloc0 := mem.TotalAlloc
	start := time.Now()
	intervals := int(dur / time.Second)
	cpuMarks := make(chan []time.Duration, 1)
	go func() { cpuMarks <- sampleCPU(start, intervals) }()
	phase(start, start.Add(dur), 1, true)
	st.window = time.Since(start)
	st.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&mem)
	st.allocBytes = mem.TotalAlloc - alloc0
	for _, c := range done {
		st.lat = append(st.lat, c.lat)
	}
	sort.Slice(st.lat, func(i, j int) bool { return st.lat[i] < st.lat[j] })

	marks := <-cpuMarks
	st.intervalItems = spreadItems(done, intervals)
	st.p99, st.p99Blocks = blockP99(done)
	for k := 0; k < intervals; k++ {
		st.intervalCPU = append(st.intervalCPU, marks[k+1]-marks[k])
	}
	return st
}

// spreadItems counts the verdicts delivered in each of n one-second
// intervals. A request's verdicts are spread evenly over the time from its
// send to its answer: each operator delivers a steady flow, and a count
// that only ticks when whole batches land would quantise the rate.
func spreadItems(done []completion, n int) []float64 {
	out := make([]float64, n)
	for _, c := range done {
		span := (c.back - c.sent).Seconds()
		for k := int(c.sent / time.Second); k < n && k <= int(c.back/time.Second); k++ {
			lo := math.Max(c.sent.Seconds(), float64(k))
			hi := math.Min(c.back.Seconds(), float64(k+1))
			if span <= 0 {
				out[k] += float64(c.items)
			} else if hi > lo {
				out[k] += float64(c.items) * (hi - lo) / span
			}
		}
	}
	return out
}

// p99Block is the fewest requests a block may hold: its p99 then has at
// least ten requests beyond it.
const p99Block = 1000

// blockP99 splits the requests, in completion order, into as many equal
// blocks of at least p99Block requests as there are (one block when there
// are fewer), and returns the median of the blocks' p99s with the block
// count. A neighbour's burst on a shared machine then spoils one block's
// tail, not the run's.
func blockP99(done []completion) (time.Duration, int) {
	byBack := append([]completion(nil), done...)
	sort.Slice(byBack, func(i, j int) bool { return byBack[i].back < byBack[j].back })
	blocks := max(1, len(byBack)/p99Block)
	var p99s []float64
	for b := 0; b < blocks; b++ {
		blk := byBack[b*len(byBack)/blocks : (b+1)*len(byBack)/blocks]
		lat := make([]time.Duration, len(blk))
		for i, c := range blk {
			lat[i] = c.lat
		}
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		p99s = append(p99s, float64(percentile(lat, 0.99)))
	}
	return time.Duration(median(p99s)), blocks
}

// sampleCPU reads the process CPU time at start and at each of the next n
// one-second boundaries after it, and returns the n+1 readings.
func sampleCPU(start time.Time, n int) []time.Duration {
	marks := []time.Duration{cpuTime()}
	for k := 1; k <= n; k++ {
		time.Sleep(time.Until(start.Add(time.Duration(k) * time.Second)))
		marks = append(marks, cpuTime())
	}
	return marks
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSS is the process's high-water resident set size in bytes.
func peakRSS() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss << 10 // kilobytes on Linux
}
