package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"hdc/internal/body"
	"hdc/internal/geom"
	"hdc/internal/human"
	"hdc/internal/pipeline"
	"hdc/internal/protocol"
	"hdc/internal/raster"
	"hdc/internal/scene"
)

// shared_test.go covers the fleet-shared pool surface: WithSharedPipeline
// attachment lifecycle, per-system stats attribution through the System
// façade, and conversation perception routed through the pool.

// newSharedPool builds a small pool for tests.
func newSharedPool(t testing.TB) *pipeline.Pipeline {
	t.Helper()
	pool, err := NewSharedPool(
		WithSceneConfig(scene.Config{Width: 128, Height: 128}),
		WithPipelineConfig(pipeline.Config{Workers: 2, QueueDepth: 2, StreamWindow: 2}),
	)
	if err != nil {
		t.Fatal(err)
	}
	return pool
}

// TestSharedPipelineLifecycle attaches three systems to one pool, drives
// attributed traffic through each and closes them in order: the pool must
// survive every close but the last, and refuse attachment afterwards.
func TestSharedPipelineLifecycle(t *testing.T) {
	pool := newSharedPool(t)
	systems := make([]*System, 3)
	for i := range systems {
		systems[i] = newSystem(t,
			WithSceneConfig(scene.Config{Width: 128, Height: 128}),
			WithSharedPipeline(pool),
			WithPoolLabel(fmt.Sprintf("drone-%d", i)),
		)
	}

	// Attachment happened inside NewSystem: the count is visible before any
	// streaming call.
	if s := pool.Stats(); s.Attached != 3 {
		t.Fatalf("attached=%d after 3 NewSystems, want 3", s.Attached)
	}
	for i, sys := range systems {
		stats, started := sys.PoolStats()
		if !started {
			t.Fatalf("system %d: shared pool not visible from construction", i)
		}
		if stats.Attached != 3 {
			t.Fatalf("system %d sees attached=%d", i, stats.Attached)
		}
	}

	frame, err := systems[0].Rend.Render(body.SignYes, scene.ReferenceView(), body.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, sys := range systems {
		results, errs, err := sys.RecognizeBatch([]*raster.Gray{frame, frame})
		if err != nil {
			t.Fatalf("system %d batch: %v", i, err)
		}
		for j := range errs {
			if errs[j] != nil {
				t.Fatalf("system %d frame %d: %v", i, j, errs[j])
			}
			if !results[j].OK {
				t.Fatalf("system %d frame %d: not OK", i, j)
			}
		}
	}
	stats := pool.Stats()
	if len(stats.Owners) != 3 {
		t.Fatalf("owners: %+v", stats.Owners)
	}
	for i, o := range stats.Owners {
		if o.Label != fmt.Sprintf("drone-%d", i) {
			t.Fatalf("owner %d label %q", i, o.Label)
		}
		if o.Frames != 2 {
			t.Fatalf("owner %q frames=%d, want 2", o.Label, o.Frames)
		}
	}

	systems[0].Close()
	systems[0].Close() // idempotent
	systems[1].Close()
	if s := pool.Stats(); s.Closed || s.Attached != 1 {
		t.Fatalf("pool after 2/3 closes: %+v", s)
	}
	// The survivor still recognises.
	if _, errs, err := systems[2].RecognizeBatch([]*raster.Gray{frame}); err != nil || errs[0] != nil {
		t.Fatalf("survivor batch: %v %v", err, errs)
	}
	systems[2].Close()
	if s := pool.Stats(); !s.Closed {
		t.Fatal("pool open after last system closed")
	}

	// Constructing a system against the drained pool fails cleanly.
	if _, err := NewSystem(WithSharedPipeline(pool)); !errors.Is(err, pipeline.ErrClosed) {
		t.Fatalf("NewSystem on closed pool: %v, want ErrClosed", err)
	}
}

// TestSharedConversePerceivesThroughPool runs full Fig 3 conversations on
// systems attached to one shared pool and checks (a) outcomes match the
// single-system behaviour and (b) the perception frames are attributed to
// each drone's owner — proof the conversation loop recognises on the fleet
// pool, not on a private code path.
func TestSharedConversePerceivesThroughPool(t *testing.T) {
	pool := newSharedPool(t)
	const drones = 2
	granted := 0
	systems := make([]*System, drones)
	for i := range systems {
		systems[i] = newSystem(t,
			WithSeed(int64(i+1)),
			WithHome(geom.V3(float64(-8*i), -20, 0)),
			WithSceneConfig(scene.Config{Width: 128, Height: 128}),
			WithSharedPipeline(pool),
			WithPoolLabel(fmt.Sprintf("drone-%d", i)),
		)
	}
	var wg sync.WaitGroup
	outcomes := make([]protocol.Outcome, drones)
	errs := make([]error, drones)
	for i, sys := range systems {
		i, sys := i, sys
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(7 * (i + 1))))
			c, err := human.New("sup", human.RoleSupervisor, geom.V2(float64(20*i), 0), rng)
			if err != nil {
				errs[i] = err
				return
			}
			res, err := sys.Converse(c)
			if err != nil {
				errs[i] = err
				return
			}
			outcomes[i] = res.Outcome
		}()
	}
	wg.Wait()
	for i := range errs {
		if errs[i] != nil {
			t.Fatalf("drone %d: %v", i, errs[i])
		}
		if outcomes[i] == protocol.OutcomeGranted {
			granted++
		}
	}

	stats := pool.Stats()
	if len(stats.Owners) != drones {
		t.Fatalf("owners: %+v", stats.Owners)
	}
	for _, o := range stats.Owners {
		if o.Frames == 0 {
			t.Fatalf("owner %q perceived no frames through the pool — conversation bypassed it", o.Label)
		}
		if o.IngestAccepted == 0 {
			t.Fatalf("owner %q has no ingest-ring traffic — perception not fronted by a Source", o.Label)
		}
	}
	if granted == 0 {
		t.Fatal("no conversation granted across 2 supervisor negotiations")
	}
	for _, sys := range systems {
		sys.Close()
	}
	if s := pool.Stats(); !s.Closed {
		t.Fatal("pool open after fleet closed")
	}
}

// TestSharedCloseDuringConversations drains the shared pool while other
// systems are mid-conversation: survivors must finish or abort with a clean
// pipeline-closed error, never hang or panic. (Force-close here stands in
// for process shutdown racing a running fleet.)
func TestSharedCloseDuringConversations(t *testing.T) {
	pool := newSharedPool(t)
	const drones = 3
	systems := make([]*System, drones)
	for i := range systems {
		systems[i] = newSystem(t,
			WithSeed(int64(i+1)),
			WithSceneConfig(scene.Config{Width: 128, Height: 128}),
			WithSharedPipeline(pool),
			WithPoolLabel(fmt.Sprintf("drone-%d", i)),
		)
	}
	var wg sync.WaitGroup
	for i, sys := range systems {
		i, sys := i, sys
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(i + 1)))
			for round := 0; round < 4; round++ {
				c, err := human.New("w", human.RoleWorker, geom.V2(float64(5*i), float64(5*round)), rng)
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := sys.Converse(c); err != nil {
					if !errors.Is(err, pipeline.ErrClosed) &&
						!errors.Is(err, pipeline.ErrSourceClosed) &&
						!errors.Is(err, pipeline.ErrStreamClosed) {
						t.Errorf("drone %d: %v", i, err)
					}
					return
				}
			}
		}()
	}
	pool.Close() // force-close mid-traffic
	wg.Wait()
	for _, sys := range systems {
		sys.Close() // detach after force-close must be a no-op
	}
}
