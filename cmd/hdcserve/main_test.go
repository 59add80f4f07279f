package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"

	"hdc/internal/failpoint"
	"hdc/internal/raster"
	"hdc/internal/server/client"
)

// TestLoadgenSmoke runs a miniature in-process load generation end to end:
// server up, operators driven, report printed.
func TestLoadgenSmoke(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{
		"-loadgen", "-operators", "2", "-duration", "300ms", "-batch", "2", "-workers", "1",
	}, &out, &errOut, nil)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	s := out.String()
	for _, want := range []string{"hdcserve loadgen: 2 operators", "frames:", "latency:", "pool:"} {
		if !strings.Contains(s, want) {
			t.Errorf("report missing %q:\n%s", want, s)
		}
	}
	if strings.Contains(s, "failures") && !strings.Contains(s, " 0 failures") {
		t.Errorf("loadgen reported failures:\n%s", s)
	}
}

// TestServeAndDrain boots the real serving path on an ephemeral port, checks
// health, then drains it with SIGTERM — the production shutdown sequence.
func TestServeAndDrain(t *testing.T) {
	var out, errOut bytes.Buffer
	ready := make(chan string, 1)
	done := make(chan int, 1)
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-workers", "1"}, &out, &errOut, ready)
	}()
	var addr string
	select {
	case addr = <-ready:
	case <-time.After(30 * time.Second):
		t.Fatal("server never became ready")
	}

	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}

	// The signal handler is installed by serve; the test process delivers
	// SIGTERM to itself and run() must drain and exit 0.
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("exit %d: %s", code, errOut.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("drain never completed")
	}
	if !strings.Contains(out.String(), "drained") {
		t.Fatalf("drain log: %q", out.String())
	}
}

// TestUsageAndValidation pins the exit taxonomy.
func TestUsageAndValidation(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-bogus"}, &out, &errOut, nil); code != 2 {
		t.Fatalf("bad flag exit %d, want 2", code)
	}
	if code := run([]string{"positional"}, &out, &errOut, nil); code != 2 {
		t.Fatalf("positional arg exit %d, want 2", code)
	}
	if code := run([]string{"-loadgen", "-mix", "sideways"}, &out, &errOut, nil); code != 1 {
		t.Fatalf("bad mix exit %d, want 1", code)
	}
	if code := run([]string{"-loadgen", "-wire", "carrier-pigeon"}, &out, &errOut, nil); code != 1 {
		t.Fatalf("bad wire exit %d, want 1", code)
	}
	// A dictionary that does not exist fails cleanly at startup.
	errOut.Reset()
	if code := run([]string{"-dict", "/nonexistent/refs.json"}, &out, &errOut, nil); code != 1 {
		t.Fatalf("missing dict exit %d, want 1", code)
	}
	if !strings.Contains(errOut.String(), "hdcserve:") {
		t.Fatalf("stderr: %q", errOut.String())
	}
}

// TestServeStoreMode boots -store twice against one directory: the first run
// creates and seeds it with the rendered references, the second opens the
// sealed store. Both must serve, report the store on /statsz, and drain.
func TestServeStoreMode(t *testing.T) {
	dir := t.TempDir() + "/signs.store"
	var entries int
	for pass, name := range []string{"create+seed", "reopen"} {
		var out, errOut bytes.Buffer
		ready := make(chan string, 1)
		done := make(chan int, 1)
		go func() {
			done <- run([]string{"-addr", "127.0.0.1:0", "-workers", "1", "-store", dir}, &out, &errOut, ready)
		}()
		var addr string
		select {
		case addr = <-ready:
		case <-time.After(30 * time.Second):
			t.Fatalf("%s: server never became ready: %s", name, errOut.String())
		}

		resp, err := http.Get("http://" + addr + "/statsz")
		if err != nil {
			t.Fatal(err)
		}
		var stats struct {
			Store *struct {
				Entries int `json:"entries"`
			} `json:"store"`
		}
		err = json.NewDecoder(resp.Body).Decode(&stats)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if stats.Store == nil || stats.Store.Entries == 0 {
			t.Fatalf("%s: statsz store snapshot missing or empty: %+v", name, stats.Store)
		}
		if pass == 0 {
			entries = stats.Store.Entries
		} else if stats.Store.Entries != entries {
			t.Fatalf("reopen entries %d, want %d", stats.Store.Entries, entries)
		}

		if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		select {
		case code := <-done:
			if code != 0 {
				t.Fatalf("%s: exit %d: %s", name, code, errOut.String())
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("%s: drain never completed", name)
		}
	}

	// -dict and -store together are a usage error.
	var out, errOut bytes.Buffer
	if code := run([]string{"-dict", "x.json", "-store", dir}, &out, &errOut, nil); code != 2 {
		t.Fatalf("-dict+-store exit %d, want 2", code)
	}
}

// TestServeDrainWithOpenSessions is the hard drain case: SIGTERM lands
// while a recognition stream has a frames request in flight (workers
// slowed by a failpoint) and a live gesture session sits open. The drain
// must still complete: the in-flight request finishes (its tail may answer
// "draining"), the sessions end, and run exits 0.
func TestServeDrainWithOpenSessions(t *testing.T) {
	defer failpoint.DisableAll()
	var out, errOut bytes.Buffer
	ready := make(chan string, 1)
	done := make(chan int, 1)
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-workers", "1", "-queue", "1", "-window", "2"}, &out, &errOut, ready)
	}()
	var addr string
	select {
	case addr = <-ready:
	case <-time.After(30 * time.Second):
		t.Fatalf("server never became ready: %s", errOut.String())
	}

	c := client.New("http://"+addr, nil)
	ctx := context.Background()
	st, err := c.OpenStream(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// A live gesture session: open it and push two frames into it.
	resp, err := http.Post("http://"+addr+"/v1/gesture/streams", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var gst struct {
		ID string `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&gst)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusCreated {
		t.Fatalf("open gesture session: %d %v", resp.StatusCode, err)
	}

	frames := make([]*raster.Gray, 8)
	for i := range frames {
		frames[i], err = raster.NewGray(64, 64)
		if err != nil {
			t.Fatal(err)
		}
	}
	_, _, payload, err := client.EncodeRaw(frames[:2])
	if err != nil {
		t.Fatal(err)
	}
	offer, err := http.NewRequest(http.MethodPost, "http://"+addr+"/v1/gesture/streams/"+gst.ID+"/frames", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	offer.Header.Set("Content-Type", "application/octet-stream")
	offer.Header.Set("X-Frame-Width", "64")
	offer.Header.Set("X-Frame-Height", "64")
	offer.Header.Set("X-Frame-Count", "2")
	if resp, err = http.DefaultClient.Do(offer); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("gesture offer: %d", resp.StatusCode)
	}

	// Slow the single worker so the stream request is still in flight when
	// the signal lands.
	if err := failpoint.Enable(failpoint.PipelineWorker, "delay(50ms)"); err != nil {
		t.Fatal(err)
	}
	submitDone := make(chan error, 1)
	go func() {
		_, err := st.Submit(ctx, frames...)
		submitDone <- err
	}()
	time.Sleep(100 * time.Millisecond) // let the request reach the pool

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("exit %d: %s", code, errOut.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("drain never completed with open sessions")
	}
	// The in-flight request must have been answered, not abandoned: either
	// full results or a transport/draining error, but never a hang.
	select {
	case <-submitDone:
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight stream request never returned")
	}
	if !strings.Contains(out.String(), "drained") {
		t.Fatalf("drain log: %q", out.String())
	}
}
