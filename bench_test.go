// Benchmarks regenerating the hot path of every experiment in DESIGN.md's
// E1–E17 index (one benchmark per paper figure/result or extension). Run with:
//
//	go test -bench=. -benchmem
package hdc

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"hdc/internal/body"
	"hdc/internal/core"
	"hdc/internal/flight"
	"hdc/internal/geom"
	"hdc/internal/gesture"
	"hdc/internal/human"
	"hdc/internal/ledring"
	"hdc/internal/mission"
	"hdc/internal/orchard"
	"hdc/internal/pipeline"
	"hdc/internal/protocol"
	"hdc/internal/raster"
	"hdc/internal/recognizer"
	"hdc/internal/sax"
	"hdc/internal/scene"
	"hdc/internal/timeseries"
	"hdc/internal/vision"
)

// mustPipeline builds the calibrated recogniser and reference frames once
// per benchmark.
func mustPipeline(b *testing.B) (*recognizer.Recognizer, *scene.Renderer) {
	b.Helper()
	rec, err := recognizer.New(recognizer.Config{})
	if err != nil {
		b.Fatal(err)
	}
	rend := scene.NewRenderer(scene.Config{})
	if err := rec.BuildReferences(rend, scene.ReferenceView()); err != nil {
		b.Fatal(err)
	}
	return rec, rend
}

func mustFrame(b *testing.B, rend *scene.Renderer, s body.Sign, v scene.View) *raster.Gray {
	b.Helper()
	f, err := rend.Render(s, v, body.Options{}, nil)
	if err != nil {
		b.Fatal(err)
	}
	return f
}

// BenchmarkE1LEDRing — Fig 1: full navigation refresh + decode per heading.
func BenchmarkE1LEDRing(b *testing.B) {
	ring, err := ledring.New(ledring.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ring.SetNavigation(geom.HeadingFromDeg(float64(i % 360)))
		if _, err := ledring.DecodeHeading(ring.LEDs()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE2LandingPattern — Fig 2: full take-off + landing cycle with the
// rotor/lights sequencing.
func BenchmarkE2LandingPattern(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d, err := flight.New(flight.DefaultParams(), geom.V3(0, 0, 0))
		if err != nil {
			b.Fatal(err)
		}
		e := flight.NewExecutor(d)
		if _, err := e.Fly(flight.PatternTakeOff, geom.Vec3{}); err != nil {
			b.Fatal(err)
		}
		if _, err := e.Fly(flight.PatternLand, geom.Vec3{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE3Negotiation — Fig 3: one full protocol conversation against
// the behavioural human model (no rendering).
func BenchmarkE3Negotiation(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		h, err := human.New("b", human.RoleWorker, geom.V2(0, 0), rng)
		if err != nil {
			b.Fatal(err)
		}
		env := protocol.NewSimEnv(h, rng)
		eng := protocol.NewEngine(protocol.Config{}, nil)
		if _, err := eng.Negotiate(env); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE4TimeSeries — Fig 4: silhouette signature extraction (contour →
// centroid-distance series) from the 65° 'No' frame.
func BenchmarkE4TimeSeries(b *testing.B) {
	_, rend := mustPipeline(b)
	frame := mustFrame(b, rend, body.SignNo, scene.View{AltitudeM: 5, DistanceM: 3, AzimuthDeg: 65})
	mask := vision.OtsuBinarize(frame)
	mask = vision.Open(mask, 1)
	mask = vision.Close(mask, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := vision.ExtractSignatureNorm(mask, 128, vision.NormWhiten); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE5RecognitionLatency — §IV timings: the full pipeline on the 0°
// and 65° frames (paper: 38 ms / 27 ms on Python+OpenCV).
func BenchmarkE5RecognitionLatency(b *testing.B) {
	rec, rend := mustPipeline(b)
	for _, az := range []float64{0, 65} {
		frame := mustFrame(b, rend, body.SignNo, scene.View{AltitudeM: 5, DistanceM: 3, AzimuthDeg: az})
		b.Run(map[float64]string{0: "az0", 65: "az65"}[az], func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := rec.Recognize(frame); err != nil && !errors.Is(err, recognizer.ErrNoSign) {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE6AltitudeSweep — §IV altitude envelope: one render+recognise
// cycle per paper altitude.
func BenchmarkE6AltitudeSweep(b *testing.B) {
	rec, rend := mustPipeline(b)
	alts := []float64{2, 3, 4, 5}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := recognizer.SweepAltitude(rec, rend, body.SignNo, alts, 3, 0, 1, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE7AzimuthSweep — §IV dead angle: render+recognise across a
// quarter circle.
func BenchmarkE7AzimuthSweep(b *testing.B) {
	rec, rend := mustPipeline(b)
	azs := []float64{0, 15, 30, 45, 65, 90}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := recognizer.SweepAzimuth(rec, rend, body.SignNo, 5, 3, azs, 1, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE8SignUniqueness — §IV uniqueness: the pairwise
// rotation/mirror-minimised distance matrix over the reference database.
func BenchmarkE8SignUniqueness(b *testing.B) {
	rec, _ := mustPipeline(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := rec.Database().PairwiseExactDist(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE9Throughput — §IV fps claim: sustained single-frame pipeline
// throughput per frame size (compare ns/op against 33 ms and 16 ms).
func BenchmarkE9Throughput(b *testing.B) {
	for _, size := range []int{128, 256, 512} {
		rec, err := recognizer.New(recognizer.Config{})
		if err != nil {
			b.Fatal(err)
		}
		rend := scene.NewRenderer(scene.Config{Width: size, Height: size})
		if err := rec.BuildReferences(rend, scene.ReferenceView()); err != nil {
			b.Fatal(err)
		}
		frame := mustFrame(b, rend, body.SignNo, scene.ReferenceView())
		b.Run(map[int]string{128: "128px", 256: "256px", 512: "512px"}[size], func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := rec.Recognize(frame); err != nil && !errors.Is(err, recognizer.ErrNoSign) {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE10ParameterGrid — ref [22] tuning: SAX encode across the
// parameter grid on a fixed signature.
func BenchmarkE10ParameterGrid(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	sig := make(timeseries.Series, 128)
	for i := range sig {
		sig[i] = rng.NormFloat64()
	}
	encoders := []*sax.Encoder{}
	for _, w := range []int{8, 16, 32} {
		for _, a := range []int{3, 5, 9} {
			e, err := sax.NewEncoder(w, a)
			if err != nil {
				b.Fatal(err)
			}
			encoders = append(encoders, e)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, e := range encoders {
			if _, err := e.Encode(sig); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkE11LEDAblation — §II display ablation: decode error integration
// across LED counts.
func BenchmarkE11LEDAblation(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, n := range []int{6, 10, 24} {
			ring, err := ledring.New(ledring.Options{LEDCount: n})
			if err != nil {
				b.Fatal(err)
			}
			for deg := 0.0; deg < 360; deg += 15 {
				ring.SetNavigation(geom.HeadingFromDeg(deg))
				if _, err := ledring.DecodeHeading(ring.LEDs()); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// BenchmarkE12PatternLegibility — §III unmistakability: fly + classify one
// communicative pattern.
func BenchmarkE12PatternLegibility(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d, err := flight.New(flight.DefaultParams(), geom.V3(0, 0, 0))
		if err != nil {
			b.Fatal(err)
		}
		e := flight.NewExecutor(d)
		if _, err := e.Fly(flight.PatternTakeOff, geom.Vec3{}); err != nil {
			b.Fatal(err)
		}
		p := flight.CommunicativePatterns()[i%4]
		tr, err := e.Fly(p, geom.V3(6, 2, 0))
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := flight.Classify(tr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE13OrchardMission — §I use case: a compact full-stack mission
// (flight + lights + rendered perception + protocol + world).
func BenchmarkE13OrchardMission(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sys, err := core.NewSystem(core.WithSeed(int64(i+1)), core.WithHome(geom.V3(-5, -5, 0)))
		if err != nil {
			b.Fatal(err)
		}
		world, err := orchard.Generate(orchard.Config{
			Rows: 2, Cols: 4, TrapEvery: 4, Humans: 2,
		}, rand.New(rand.NewSource(int64(i+1))))
		if err != nil {
			b.Fatal(err)
		}
		world.Step(time.Hour)
		m, err := mission.New(sys, world, mission.Config{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := m.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE14GestureObserve — §V dynamic signals: one full gesture
// observation window (24 rendered frames) plus classification.
func BenchmarkE14GestureObserve(b *testing.B) {
	rend := scene.NewRenderer(scene.Config{})
	rec, err := gesture.NewRecognizer(gesture.Config{}, rend, scene.ReferenceView())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := gesture.Gestures()[i%3]
		if _, err := rec.Observe(g, scene.ReferenceView(), 0.3, body.Options{}, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE15DeadZoneCapture — §IV negative result: one dead-zone capture
// with full match diagnostics.
func BenchmarkE15DeadZoneCapture(b *testing.B) {
	rec, rend := mustPipeline(b)
	frame := mustFrame(b, rend, body.SignNo, scene.View{AltitudeM: 5, DistanceM: 3, AzimuthDeg: 90})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rec.Recognize(frame); err != nil && !errors.Is(err, recognizer.ErrNoSign) {
			b.Fatal(err)
		}
	}
}

// benchPipelineThroughput pushes b.N frames through one stream of a pool
// with the given worker count, measuring sustained frames/sec of the
// streaming service (ns/op = time per frame).
func benchPipelineThroughput(b *testing.B, workers int) {
	rec, rend := mustPipeline(b)
	frame := mustFrame(b, rend, body.SignNo, scene.ReferenceView())
	p, err := pipeline.New(rec, pipeline.Config{
		Workers: workers, QueueDepth: 4 * workers, StreamWindow: 4 * workers,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	st, err := p.NewStream()
	if err != nil {
		b.Fatal(err)
	}
	done := make(chan int)
	go func() {
		n := 0
		for range st.Results() {
			n++
		}
		done <- n
	}()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := st.Submit(frame); err != nil {
			b.Fatal(err)
		}
	}
	st.Close()
	if n := <-done; n != b.N {
		b.Fatalf("delivered %d/%d results", n, b.N)
	}
}

// BenchmarkPipelineThroughput — the tentpole measurement: single-worker vs
// NumCPU-worker frame throughput of the streaming recognition service. On a
// multi-core runner the workers=NumCPU variant should sustain several times
// the single-worker frames/sec; per-frame allocations (B/op) stay flat with
// worker count and well below the unpooled front half (BenchmarkE4).
func BenchmarkPipelineThroughput(b *testing.B) {
	counts := []int{1}
	if n := runtime.NumCPU(); n > 1 {
		counts = append(counts, n)
	}
	for _, workers := range counts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			benchPipelineThroughput(b, workers)
		})
	}
}

// BenchmarkPipelineBatch — the RecognizeBatch convenience over the same
// pool: 16-frame batches through NumCPU workers.
func BenchmarkPipelineBatch(b *testing.B) {
	rec, rend := mustPipeline(b)
	frames := make([]*raster.Gray, 16)
	for i := range frames {
		frames[i] = mustFrame(b, rend, body.SignNo, scene.View{
			AltitudeM: 5, DistanceM: 3, AzimuthDeg: float64(i * 4),
		})
	}
	p, err := pipeline.New(rec, pipeline.Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := recognizeBatch(p, frames); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIngestRing — the live-feed ingest layer's producer cost: Offer
// against a ring whose pool is saturated, i.e. the worst case a camera loop
// pays per frame (an eviction plus a counter update, never a block). The
// per-op time must stay in the sub-microsecond range that makes Offer safe
// on a capture thread.
func BenchmarkIngestRing(b *testing.B) {
	rec, rend := mustPipeline(b)
	p, err := pipeline.New(rec, pipeline.Config{Workers: 1, QueueDepth: 1, StreamWindow: 2})
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	// A worker stage slow enough that the ring is permanently saturated.
	st, err := p.NewProcStream(func(sc *recognizer.Scratch, seq uint64, frame *raster.Gray) (recognizer.Result, error) {
		time.Sleep(100 * time.Microsecond)
		return recognizer.Result{}, nil
	})
	if err != nil {
		b.Fatal(err)
	}
	go func() {
		for range st.Results() {
		}
	}()
	src, err := pipeline.NewSource(st, pipeline.SourceConfig{Capacity: 16})
	if err != nil {
		b.Fatal(err)
	}
	frame := mustFrame(b, rend, body.SignNo, scene.ReferenceView())
	// A single Offer is a few hundred nanoseconds — below what the CI
	// gate's one-iteration samples can time reliably — so each benchmark op
	// is a burst of 16384 Offers (one op ≈ sixteen seconds of a 1 kfps camera loop).
	const burst = 16384
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < burst; j++ {
			if err := src.Offer(frame); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	src.Close()
	st.Close()
}

// BenchmarkStageBreakdown — the per-stage latency medians of the streaming
// pipeline, read back from the always-on trace aggregates rather than timed
// here: the parent drives a fixed batch through a traced pool, then each
// sub-benchmark reports its stage's p50 via ReportMetric. These lines are
// in the benchgate key set, which is what lets a tripped CI perf gate name
// the regressed stage (cmd/benchgate's "regressed stage:" failure output)
// instead of just reporting that the geomean moved.
func BenchmarkStageBreakdown(b *testing.B) {
	rec, rend := mustPipeline(b)
	frame := mustFrame(b, rend, body.SignNo, scene.ReferenceView())
	p, err := pipeline.New(rec, pipeline.Config{Workers: 2})
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()

	const frames = 64
	batch := make([]*raster.Gray, frames)
	for i := range batch {
		batch[i] = frame
	}
	if _, _, err := recognizeBatch(p, batch); err != nil {
		b.Fatal(err)
	}
	// The deliver terminal is stamped by the emit goroutine just after the
	// collector reads the result, so give the tail a moment to settle.
	tr := p.Tracer()
	deadline := time.Now().Add(2 * time.Second)
	for tr.Snapshot(0).Totals.Delivered < frames && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	for _, sp := range tr.Snapshot(0).Stages {
		if sp.Count == 0 {
			continue // no ingest ring on the batch path
		}
		p50 := sp.P50Ns
		b.Run(sp.Stage, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				// The measurement already happened in the traced batch above;
				// the loop only satisfies the benchmark contract.
			}
			b.ReportMetric(float64(p50), "ns/op")
		})
	}
}

// BenchmarkE16FleetPartition — fleet extension: trap partitioning across
// fleet sizes.
func BenchmarkE16FleetPartition(b *testing.B) {
	world, err := orchard.Generate(orchard.Config{Rows: 8, Cols: 12, TrapEvery: 2},
		rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, k := range []int{1, 2, 3, 4} {
			mission.PartitionTraps(world.Traps, k)
		}
	}
}

// recognizeBatch recognises frames in input order on a private stream of p.
func recognizeBatch(p *pipeline.Pipeline, frames []*raster.Gray) ([]recognizer.Result, []error, error) {
	st, err := p.NewStream()
	if err != nil {
		return nil, nil, err
	}
	defer st.Close()
	res, errs, _, err := st.Batch(context.Background(), frames, nil)
	return res, errs, err
}
