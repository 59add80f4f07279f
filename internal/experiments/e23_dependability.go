package experiments

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"hdc/internal/core"
	"hdc/internal/failpoint"
	"hdc/internal/pipeline"
	"hdc/internal/sax/store"
	"hdc/internal/scene"
	"hdc/internal/server"
	"hdc/internal/server/client"
	"hdc/internal/server/loadtest"
	"hdc/internal/telemetry"
)

// e23RunFor is the per-scenario load window; trimmed under `go test` to keep
// the tier-1 suite inside its budget.
func e23RunFor() time.Duration {
	if testing.Testing() {
		return 500 * time.Millisecond
	}
	return 2 * time.Second
}

// E23Dependability measures the dependability layer end to end: the same
// multi-operator load as E19 driven at a store-backed service while
// failpoints (internal/failpoint) inject the faults the layer exists for.
// Three scenarios: a no-fault baseline; a store stall (every mapped lookup
// delayed — the "slow disk" drill); and offered overload (worker dispatch
// delayed with 4× the operators — demand far above pool capacity). Under
// both fault scenarios the service keeps answering inside a bounded p99 by
// degrading: past the admission watermark it runs the pool's own recognizer
// on the request goroutine (marked degraded:true, no pool round trip), so
// the degraded fraction is the share of frames that skipped the queue. The
// verdicts are the pool's.
func E23Dependability() (string, error) {
	defer failpoint.DisableAll()

	sys, err := core.NewSystem(
		core.WithSceneConfig(scene.Config{}),
		core.WithPipelineConfig(pipeline.Config{}),
	)
	if err != nil {
		return "", err
	}
	defer sys.Close()

	// Store-backed dictionary, seeded from the rendered references exactly
	// like a first `hdcserve -store` run, so the store failpoints sit on the
	// serving path.
	root, err := os.MkdirTemp("", "hdc-e23-")
	if err != nil {
		return "", err
	}
	defer os.RemoveAll(root)
	var buf bytes.Buffer
	if err := sys.Rec.SaveReferences(&buf); err != nil {
		return "", err
	}
	if _, err := store.ConvertV1(&buf, root+"/signs", store.BuilderOptions{}); err != nil {
		return "", err
	}
	st, err := store.Open(root+"/signs", store.Options{})
	if err != nil {
		return "", err
	}
	defer st.Close()
	if err := sys.Rec.UseDictionary(st); err != nil {
		return "", err
	}

	srv := server.New(sys, server.Options{MaxBatch: 1024, Store: st})
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
	frames, err := loadtest.RenderFrames(batch)
	if err != nil {
		return "", err
	}
	probe := client.New(base, nil)
	ctx := context.Background()

	scenarios := []struct {
		name      string
		operators int
		failpoint string // "" = none
		spec      string
	}{
		{"baseline", 8, "", ""},
		{"store stall", 8, failpoint.StoreLookup, "delay(1ms)"},
		{"overload", 32, failpoint.PipelineWorker, "delay(2ms)"},
	}

	runFor := e23RunFor()
	tab := telemetry.NewTable("scenario", "operators", "frames/sec", "p50 ms", "p99 ms", "degraded", "failures")
	for _, sc := range scenarios {
		if sc.failpoint != "" {
			if err := failpoint.Enable(sc.failpoint, sc.spec); err != nil {
				return "", err
			}
		}
		before, err := probe.Statsz(ctx)
		if err != nil {
			return "", err
		}
		res, err := loadtest.Drive(ctx, base, loadtest.Config{
			Operators: sc.operators, Batch: batch, Duration: runFor,
			Mix: "mixed", Wire: "raw",
		}, frames)
		failpoint.DisableAll()
		if err != nil {
			return "", err
		}
		after, err := probe.Statsz(ctx)
		if err != nil {
			return "", err
		}
		degraded := after.Admission.DegradedFrames - before.Admission.DegradedFrames
		degFrac := 0.0
		if res.Frames > 0 {
			degFrac = float64(degraded) / float64(res.Frames)
		}
		tab.AddRow(
			sc.name,
			fmt.Sprintf("%d", sc.operators),
			fmt.Sprintf("%.1f", res.FramesPerSec()),
			fmt.Sprintf("%.1f", res.PercentileMS(0.50)),
			fmt.Sprintf("%.1f", res.PercentileMS(0.99)),
			fmt.Sprintf("%.1f%%", degFrac*100),
			fmt.Sprintf("%d", res.Failures),
		)
	}

	var sb strings.Builder
	sb.WriteString("Paper baseline: a drone that goes blind when recognition falls behind.\n")
	sb.WriteString("This extension measures the dependability layer instead: the E19\n")
	sb.WriteString("multi-operator load against a store-backed service while\n")
	sb.WriteString("internal/failpoint injects the faults the layer absorbs. \"store\n")
	sb.WriteString("stall\" delays every mapped lookup 1 ms (a slow disk); \"overload\"\n")
	sb.WriteString("delays worker dispatch 2 ms under 4× the operators (demand far above\n")
	sb.WriteString("pool capacity). Past the admission watermark the service runs the\n")
	sb.WriteString("pool's own recognizer on the request goroutine — marked degraded:true\n")
	sb.WriteString("per result — instead of queuing without bound.\n\n")
	sb.WriteString(tab.Markdown())
	sb.WriteString(fmt.Sprintf("\nHost: GOMAXPROCS=%d, NumCPU=%d, run length %v per row, batch %d.\n",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), runFor, batch))
	sb.WriteString("The p99 stays bounded through both fault scenarios because degraded\n")
	sb.WriteString("answers bypass the backed-up pool queue; the degraded column is the\n")
	sb.WriteString("fraction of frames answered that way. A degraded answer is the same\n")
	sb.WriteString("verdict the pool gives, exact lookup included, so side-on dead-zone\n")
	sb.WriteString("frames are still refused under load. Zero failures means\n")
	sb.WriteString("no request was dropped — shedding shows up as 429+Retry-After to the\n")
	sb.WriteString("retrying client, not as an error. The chaos suite\n")
	sb.WriteString("(internal/server/chaos_test.go) drives the same machinery under\n")
	sb.WriteString("randomized failpoint schedules; `hdcserve -failpoints` reproduces any\n")
	sb.WriteString("scenario against a live process.\n")
	return sb.String(), nil
}
