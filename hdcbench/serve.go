package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"hdc/internal/core"
	"hdc/internal/pipeline"
	"hdc/internal/sax/store"
	"hdc/internal/server"
	"hdc/internal/server/client"
)

// serve.go stands the served system up the way a deployment does — system,
// optional on-disk dictionary, server, loopback listener — and tears it down
// in the documented drain order.

// service is one running server stack on a loopback listener.
type service struct {
	sys   *core.System
	store *store.Store // sign_store only
	srv   *server.Server
	hs    *http.Server
	base  string
	done  chan error // the Serve goroutine's return value

	hc  *http.Client
	cli *client.Client
}

// startService builds the stack: core.NewSystem (the reference build), then
// store.Open and UseDictionary when storeDir is set, server.New with the
// default options, and a listener on 127.0.0.1.
func startService(storeDir string, workers int) (*service, error) {
	sys, err := core.NewSystem(core.WithPipelineConfig(pipeline.Config{Workers: workers}))
	if err != nil {
		return nil, err
	}
	s := &service{sys: sys}
	if storeDir != "" {
		st, err := store.Open(storeDir, store.Options{})
		if err != nil {
			return nil, err
		}
		s.store = st
		if err := sys.Rec.UseDictionary(st); err != nil {
			_ = st.Close()
			return nil, err
		}
	}
	s.srv = server.New(sys, server.Options{Store: s.store})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.closeState()
		return nil, err
	}
	s.base = "http://" + ln.Addr().String()
	s.hs = &http.Server{Handler: s.srv, ReadHeaderTimeout: 10 * time.Second}
	s.done = make(chan error, 1)
	go func() { s.done <- s.hs.Serve(ln) }()

	// One operator connection each, kept alive; no retries and no breaker,
	// so every failure is seen as it happens.
	s.hc = &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true},
		Timeout:   30 * time.Second,
	}
	s.cli = client.NewWithOptions(s.base, client.Options{HTTPClient: s.hc, MaxAttempts: 1, BreakerThreshold: -1})
	return s, nil
}

// close drains the server, shuts the listener down, then closes the
// sessions, graphs, pool and store in that order.
func (s *service) close() error {
	s.srv.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.hc.CloseIdleConnections()
	s.srv.Close()
	s.closeState()
	return err
}

func (s *service) closeState() {
	s.sys.Close()
	if s.store != nil {
		_ = s.store.Close()
	}
}

// timedSetup starts a service and sends first until it is answered,
// returning the service and the elapsed time — the setup_s sample. The lazy
// pool and graph start happen inside first.
func timedSetup(storeDir string, workers int, first func(*service) error) (*service, time.Duration, error) {
	t0 := time.Now()
	s, err := startService(storeDir, workers)
	if err != nil {
		return nil, 0, err
	}
	if err := first(s); err != nil {
		_ = s.close()
		return nil, 0, fmt.Errorf("first request: %w", err)
	}
	return s, time.Since(t0), nil
}
