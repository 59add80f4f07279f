package experiments

import (
	"context"
	"fmt"
	"math"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"hdc/internal/core"
	"hdc/internal/pipeline"
	"hdc/internal/scene"
	"hdc/internal/server"
	"hdc/internal/server/client"
	"hdc/internal/server/loadtest"
	"hdc/internal/telemetry"
)

// e24RunFor is the per-scenario load window; trimmed under `go test` to keep
// the tier-1 suite inside its budget.
func e24RunFor() time.Duration {
	if testing.Testing() {
		return 500 * time.Millisecond
	}
	return 2 * time.Second
}

// E24Tracing measures what the always-on per-frame tracing layer costs: the
// E19 multi-operator load driven at the service three times — tracer
// disarmed (every hook collapses to one atomic load), armed (the production
// default: per-stage timestamps into the per-worker rings), and armed while
// a scraper hammers /tracez concurrently (the worst case: seqlock readers
// racing the writers they observe). The claim under test is the ros2probe
// one — observability cheap enough to leave on: armed-vs-disarmed should be
// lost in run-to-run noise at service level, and scraping must not perturb
// the writers it watches.
func E24Tracing() (string, error) {
	sys, err := core.NewSystem(
		core.WithSceneConfig(scene.Config{}),
		core.WithPipelineConfig(pipeline.Config{}),
	)
	if err != nil {
		return "", err
	}
	defer sys.Close()

	srv := server.New(sys, server.Options{MaxBatch: 1024})
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	httpSrv := &http.Server{Handler: srv}
	go func() { _ = httpSrv.Serve(ln) }()
	defer httpSrv.Close()
	base := "http://" + ln.Addr().String()

	const batch = 8
	const operators = 8
	frames, err := loadtest.RenderFrames(batch)
	if err != nil {
		return "", err
	}
	probe := client.New(base, nil)
	ctx := context.Background()

	// One warm-up batch starts the lazy pool, so the tracer exists before
	// the first scenario arms or disarms it.
	if _, err := probe.RecognizeBatch(ctx, frames); err != nil {
		return "", err
	}
	tr := sys.Tracer()
	if tr == nil {
		return "", fmt.Errorf("pool started but no tracer attached")
	}

	scenarios := []struct {
		name           string
		armed, scraped bool
	}{
		{"disarmed", false, false},
		{"armed", true, false},
		{"armed+scraped", true, true},
	}

	runFor := e24RunFor()
	fps := make([]float64, len(scenarios)) // frames/sec, in scenario order
	tab := telemetry.NewTable("scenario", "operators", "frames/sec", "p50 ms", "p99 ms", "traced", "scrapes")
	for i, sc := range scenarios {
		if sc.armed {
			tr.Arm()
		} else {
			tr.Disarm()
		}
		before := tr.Snapshot(0).Totals.Begun

		stop := make(chan struct{})
		var wg sync.WaitGroup
		var scrapes int
		if sc.scraped {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					if _, err := probe.Tracez(ctx, 64); err == nil {
						scrapes++
					}
				}
			}()
		}
		res, err := loadtest.Drive(ctx, base, loadtest.Config{
			Operators: operators, Batch: batch, Duration: runFor,
			Mix: "mixed", Wire: "raw",
		}, frames)
		close(stop)
		wg.Wait()
		if err != nil {
			return "", err
		}
		traced := tr.Snapshot(0).Totals.Begun - before
		fps[i] = res.FramesPerSec()
		tab.AddRow(
			sc.name,
			fmt.Sprintf("%d", operators),
			fmt.Sprintf("%.1f", res.FramesPerSec()),
			fmt.Sprintf("%.1f", res.PercentileMS(0.50)),
			fmt.Sprintf("%.1f", res.PercentileMS(0.99)),
			fmt.Sprintf("%d", traced),
			fmt.Sprintf("%d", scrapes),
		)
	}
	tr.Arm() // leave the tracer at its production default

	// The armed runs also fed the aggregate breakdown — the per-stage medians
	// /tracez serves, and the numbers BenchmarkStageBreakdown exports to the
	// CI perf gate.
	snap := tr.Snapshot(0)
	var stages []string
	for _, st := range snap.Stages {
		if st.Count == 0 {
			continue
		}
		stages = append(stages, fmt.Sprintf("%s %.0f µs", st.Stage, float64(st.P50Ns)/1e3))
	}

	var sb strings.Builder
	sb.WriteString("Paper baseline: aggregate per-stage latency measured offline (§IV,\n")
	sb.WriteString("E5). This extension measures the live tracing layer instead: every\n")
	sb.WriteString("frame crossing the pool carries a trace handle, and each stage\n")
	sb.WriteString("boundary is one atomic timestamp store into a per-worker ring —\n")
	sb.WriteString("served as /tracez (recent per-frame spans + per-stage p50/p99).\n")
	sb.WriteString("Three rows: tracer disarmed (hooks collapse to one atomic load),\n")
	sb.WriteString("armed (production default), and armed with a concurrent /tracez\n")
	sb.WriteString("scrape loop racing the writers.\n\n")
	sb.WriteString(tab.Markdown())
	sb.WriteString(fmt.Sprintf("\nHost: GOMAXPROCS=%d, NumCPU=%d, run length %v per row, batch %d.\n",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), runFor, batch))
	sb.WriteString(fmt.Sprintf("Armed per-stage p50 (bucketed): %s.\n", strings.Join(stages, ", ")))
	sb.WriteString(e24Verdict(fps[1]/fps[0], fps[2]/fps[1], runtime.NumCPU()))
	return sb.String(), nil
}

// e24NoiseBand is the relative throughput change E24 reads as run-to-run
// noise: three runs of the report on one unchanged tree (2-CPU host, 2 s
// rows) read armed/disarmed ratios of 1.10, 1.00 and 0.99.
const e24NoiseBand = 0.10

// e24Verdict states what the measured throughput ratios show: armed is
// armed/disarmed, scraped is armed+scraped/armed.
func e24Verdict(armed, scraped float64, cpus int) string {
	within := func(r float64) bool { return math.Abs(r-1) <= e24NoiseBand }
	var sb strings.Builder
	fmt.Fprintf(&sb, "Throughput ratios: armed / disarmed ×%.2f, armed+scraped / armed ×%.2f\n", armed, scraped)
	fmt.Fprintf(&sb, "(run-to-run noise is about ±%.0f%%).\n", 100*e24NoiseBand)
	if within(armed) {
		sb.WriteString("Arming the tracer is within noise: per-frame recognition work is\n")
		sb.WriteString("tens of microseconds, and the armed hook set costs well under a\n")
		sb.WriteString("microsecond per frame (BenchmarkTraceArmed ~0.7 µs for all seven\n")
		sb.WriteString("stamps; BenchmarkTraceDisabled ~14 ns, both 0 allocs).\n")
	} else {
		sb.WriteString("Arming the tracer moved throughput beyond noise, more than its hook\n")
		sb.WriteString("set's cost (BenchmarkTraceArmed ~0.7 µs per frame) accounts for;\n")
		sb.WriteString("rerun the report before reading the gap as tracing overhead.\n")
	}
	switch {
	case within(scraped):
		sb.WriteString("A concurrent /tracez scrape loop is within noise too: scrapers only\n")
		sb.WriteString("copy ring slots under a seqlock and never block a writer.\n")
	case scraped < 1:
		fmt.Fprintf(&sb, "The scrape loop costs %.0f%% of armed throughput. It issues /tracez\n", 100*(1-scraped))
		fmt.Fprintf(&sb, "requests back to back, and on this %d-CPU host they compete with the\n", cpus)
		sb.WriteString("pool's workers for CPU; the scrapers themselves only copy ring slots\n")
		sb.WriteString("under a seqlock and never block a writer.\n")
	default:
		sb.WriteString("The scraped row ran faster than the armed one, beyond noise; rerun\n")
		sb.WriteString("the report before reading anything into it.\n")
	}
	if within(armed) {
		sb.WriteString("That is the argument for leaving tracing armed in production:\n")
		sb.WriteString("\"where did frame N's 40 ms go?\" is answerable from /tracez after\n")
		sb.WriteString("the fact.\n")
	}
	return sb.String()
}
