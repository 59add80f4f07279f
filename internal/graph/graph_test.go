package graph_test

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"hdc/internal/failpoint"
	"hdc/internal/graph"
	"hdc/internal/graph/graphtest"
	"hdc/internal/pipeline"
	"hdc/internal/raster"
	"hdc/internal/recognizer"
)

// newPool builds a small worker pool for graph tests (the recogniser behind
// it is never invoked by graph procs, so it needs no references).
func newPool(t testing.TB) *pipeline.Pipeline {
	t.Helper()
	rec, err := recognizer.New(recognizer.Config{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := pipeline.New(rec, pipeline.Config{Workers: 2, QueueDepth: 4, StreamWindow: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p
}

// addProc returns a proc that adds n to an int payload.
func addProc(n int) graph.Proc {
	return func(_ *recognizer.Scratch, m *graph.Msg) error {
		m.Value = m.Value.(int) + n
		return nil
	}
}

// passProc forwards the message unchanged.
func passProc(_ *recognizer.Scratch, _ *graph.Msg) error { return nil }

func TestBuildValidation(t *testing.T) {
	p := newPool(t)
	pass := graph.NodeSpec{Name: "a", Proc: passProc}
	cases := []struct {
		name string
		spec graph.Spec
		want string
	}{
		{"NoNodes", graph.Spec{}, "no nodes"},
		{"EmptyName", graph.Spec{Nodes: []graph.NodeSpec{{Proc: passProc}}}, "empty name"},
		{"NilProc", graph.Spec{Nodes: []graph.NodeSpec{{Name: "a"}}}, "nil proc"},
		{"DuplicateName", graph.Spec{Nodes: []graph.NodeSpec{pass, pass}}, "duplicate node name"},
		{"UnknownFrom", graph.Spec{Nodes: []graph.NodeSpec{pass},
			Edges: []graph.EdgeSpec{{From: "x", To: "a"}}}, "unknown node"},
		{"UnknownTo", graph.Spec{Nodes: []graph.NodeSpec{pass},
			Edges: []graph.EdgeSpec{{From: "a", To: "x"}}}, "unknown node"},
		{"SelfEdge", graph.Spec{Nodes: []graph.NodeSpec{pass},
			Edges: []graph.EdgeSpec{{From: "a", To: "a"}}}, "self-edge"},
		{"FanIn", graph.Spec{
			Nodes: []graph.NodeSpec{pass, {Name: "b", Proc: passProc}, {Name: "c", Proc: passProc}},
			Edges: []graph.EdgeSpec{{From: "a", To: "b"}, {From: "a", To: "c"}, {From: "b", To: "c"}}}, "fan-in"},
		{"TwoRoots", graph.Spec{
			Nodes: []graph.NodeSpec{pass, {Name: "b", Proc: passProc}}}, "two entry nodes"},
		{"Cycle", graph.Spec{
			Nodes: []graph.NodeSpec{pass, {Name: "b", Proc: passProc}},
			Edges: []graph.EdgeSpec{{From: "a", To: "b"}, {From: "b", To: "a"}}}, "cycle"},
		{"StrideNoK", graph.Spec{Nodes: []graph.NodeSpec{pass},
			Ingest: graph.EdgeSpec{Policy: graph.Stride}}, "stride policy needs K"},
		{"BadPolicy", graph.Spec{Nodes: []graph.NodeSpec{pass},
			Ingest: graph.EdgeSpec{Policy: graph.Policy(99)}}, "invalid policy"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, err := graph.Build(tc.spec, p, graph.Config{})
			if err == nil {
				g.Close()
				t.Fatalf("Build accepted bad spec %+v", tc.spec)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
	if _, err := graph.Build(graph.Spec{Nodes: []graph.NodeSpec{pass}}, nil, graph.Config{}); err == nil {
		t.Fatal("Build accepted a nil pipeline")
	}
}

// TestChainProcess pushes a batch through a three-node chain and expects
// each output transformed by every stage, in input order.
func TestChainProcess(t *testing.T) {
	p := newPool(t)
	g, err := graph.Build(graph.Spec{
		Name: "chain",
		Nodes: []graph.NodeSpec{
			{Name: "one", Proc: addProc(1)},
			{Name: "ten", Proc: addProc(10)},
			{Name: "hundred", Proc: addProc(100)},
		},
		Edges: []graph.EdgeSpec{
			{From: "one", To: "ten"},
			{From: "ten", To: "hundred"},
		},
	}, p, graph.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	in := make([]graph.Input, 16)
	for i := range in {
		in[i] = graph.Input{Value: i}
	}
	out, err := g.Process(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range out {
		if o.Err != nil {
			t.Fatalf("output %d: %v", i, o.Err)
		}
		if got, want := o.Value.(int), i+111; got != want {
			t.Fatalf("output %d = %d, want %d", i, got, want)
		}
	}
	st := g.Stats()
	if st.Submitted != 16 || st.Delivered != 16 || st.Shed != 0 || st.Abandoned != 0 {
		t.Fatalf("stats after clean batch: %+v", st)
	}
	if len(st.Nodes) != 3 || st.Nodes[0].Owner != "chain/one" {
		t.Fatalf("node stats: %+v", st.Nodes)
	}
}

// TestFanOutRecyclesOnce submits pooled frames through a two-sink fan-out:
// both sinks see every message, and each frame recycles exactly once.
func TestFanOutRecyclesOnce(t *testing.T) {
	p := newPool(t)
	var pool raster.Pool
	var mu sync.Mutex
	perSink := map[string]int{}
	g, err := graph.Build(graph.Spec{
		Nodes: []graph.NodeSpec{
			{Name: "root", Proc: passProc},
			{Name: "left", Proc: passProc},
			{Name: "right", Proc: passProc},
		},
		Edges: []graph.EdgeSpec{
			{From: "root", To: "left"},
			{From: "root", To: "right"},
		},
	}, p, graph.Config{
		Recycle: pool.Put,
		Deliver: func(node string, m graph.Msg) {
			mu.Lock()
			perSink[node]++
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	const N = 24
	for i := 0; i < N; i++ {
		if err := g.Submit(pool.Get(16, 16), nil, nil); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	g.Close()
	mu.Lock()
	defer mu.Unlock()
	if perSink["left"] != N || perSink["right"] != N {
		t.Fatalf("sink deliveries: %v, want %d each", perSink, N)
	}
	if gets, puts := pool.Stats(); gets != puts || gets != N {
		t.Fatalf("fan-out recycling: %d gets, %d puts, want %d each", gets, puts, N)
	}
	if st := g.Stats(); st.Delivered != 2*N {
		t.Fatalf("delivered %d, want %d (one per branch)", st.Delivered, 2*N)
	}
}

// TestStrideKeepsEveryKth relies on the collector pushing results in seq
// order: a stride-3 edge must deliver exactly seqs 0, 3, 6, … and shed the
// rest.
func TestStrideKeepsEveryKth(t *testing.T) {
	p := newPool(t)
	var mu sync.Mutex
	var seqs []uint64
	g, err := graph.Build(graph.Spec{
		Nodes: []graph.NodeSpec{
			{Name: "src", Proc: passProc},
			{Name: "sink", Proc: passProc},
		},
		Edges: []graph.EdgeSpec{{From: "src", To: "sink", Policy: graph.Stride, K: 3, Cap: 2}},
	}, p, graph.Config{Deliver: func(_ string, m graph.Msg) {
		mu.Lock()
		seqs = append(seqs, m.Seq)
		mu.Unlock()
	}})
	if err != nil {
		t.Fatal(err)
	}
	const N = 9
	for i := 0; i < N; i++ {
		if err := g.Submit(nil, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	g.Close()
	mu.Lock()
	defer mu.Unlock()
	if want := []uint64{0, 3, 6}; len(seqs) != len(want) ||
		seqs[0] != want[0] || seqs[1] != want[1] || seqs[2] != want[2] {
		t.Fatalf("stride-3 delivered seqs %v, want %v", seqs, want)
	}
	st := g.Stats()
	if st.Shed != N-3 {
		t.Fatalf("stride-3 shed %d of %d, want %d", st.Shed, N, N-3)
	}
}

// TestProcessPropagatesNodeErrors: a failing stage becomes that message's
// Output.Err without disturbing its batch-mates.
func TestProcessPropagatesNodeErrors(t *testing.T) {
	p := newPool(t)
	errOdd := errors.New("odd payload")
	g, err := graph.Build(graph.Spec{
		Nodes: []graph.NodeSpec{
			{Name: "check", Proc: func(_ *recognizer.Scratch, m *graph.Msg) error {
				if m.Value.(int)%2 == 1 {
					return errOdd
				}
				return nil
			}},
			{Name: "after", Proc: addProc(100)},
		},
		Edges: []graph.EdgeSpec{{From: "check", To: "after"}},
	}, p, graph.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	in := make([]graph.Input, 8)
	for i := range in {
		in[i] = graph.Input{Value: i}
	}
	out, err := g.Process(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range out {
		if i%2 == 1 {
			if !errors.Is(o.Err, errOdd) {
				t.Fatalf("odd output %d: err %v, want errOdd", i, o.Err)
			}
			continue
		}
		if o.Err != nil {
			t.Fatalf("even output %d: %v", i, o.Err)
		}
		if got := o.Value.(int); got != i+100 {
			t.Fatalf("even output %d = %d, want %d (downstream stage must still run)", i, got, i+100)
		}
	}
}

// TestProcessRejectsMultiSink: with fan-out one input would deliver twice.
func TestProcessRejectsMultiSink(t *testing.T) {
	p := newPool(t)
	g, err := graph.Build(graph.Spec{
		Nodes: []graph.NodeSpec{
			{Name: "root", Proc: passProc},
			{Name: "a", Proc: passProc},
			{Name: "b", Proc: passProc},
		},
		Edges: []graph.EdgeSpec{{From: "root", To: "a"}, {From: "root", To: "b"}},
	}, p, graph.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if _, err := g.Process(context.Background(), []graph.Input{{}}); err == nil {
		t.Fatal("Process accepted a two-sink graph")
	}
}

// TestSubmitAfterClose: a closed graph refuses work and stays refusing.
func TestSubmitAfterClose(t *testing.T) {
	p := newPool(t)
	g, err := graph.Build(graph.Spec{Nodes: []graph.NodeSpec{{Name: "a", Proc: passProc}}}, p, graph.Config{})
	if err != nil {
		t.Fatal(err)
	}
	g.Close()
	g.Close() // idempotent
	if err := g.Submit(nil, nil, nil); !errors.Is(err, graph.ErrClosed) {
		t.Fatalf("submit after close: %v, want ErrClosed", err)
	}
	out, err := g.Process(context.Background(), []graph.Input{{Value: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(out[0].Err, graph.ErrClosed) {
		t.Fatalf("process after close: %v, want ErrClosed", out[0].Err)
	}
}

// TestFailpointDispatch: an armed node-dispatch failpoint turns every
// message into an error delivery — ownership intact.
func TestFailpointDispatch(t *testing.T) {
	defer failpoint.DisableAll()
	if err := failpoint.Enable(failpoint.GraphDispatch, "error(node down)"); err != nil {
		t.Fatal(err)
	}
	p := newPool(t)
	var pool raster.Pool
	g, err := graph.Build(graph.Spec{
		Nodes: []graph.NodeSpec{{Name: "a", Proc: passProc}},
	}, p, graph.Config{Recycle: pool.Put})
	if err != nil {
		t.Fatal(err)
	}
	in := []graph.Input{{Frame: pool.Get(16, 16)}, {Frame: pool.Get(16, 16)}}
	out, err := g.Process(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range out {
		if !errors.Is(o.Err, failpoint.ErrInjected) {
			t.Fatalf("output %d: %v, want injected error", i, o.Err)
		}
	}
	g.Close()
	if gets, puts := pool.Stats(); gets != puts {
		t.Fatalf("dispatch fault leaked frames: %d gets, %d puts", gets, puts)
	}
}

// TestFailpointEdgeForward: an armed edge-forward failpoint sheds at the
// ingest edge; Process reports ErrShed and frames still recycle.
func TestFailpointEdgeForward(t *testing.T) {
	defer failpoint.DisableAll()
	if err := failpoint.Enable(failpoint.GraphEdgeForward, "error(edge cut)"); err != nil {
		t.Fatal(err)
	}
	p := newPool(t)
	var pool raster.Pool
	g, err := graph.Build(graph.Spec{
		Nodes: []graph.NodeSpec{{Name: "a", Proc: passProc}},
	}, p, graph.Config{Recycle: pool.Put})
	if err != nil {
		t.Fatal(err)
	}
	out, err := g.Process(context.Background(), []graph.Input{{Frame: pool.Get(16, 16)}})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(out[0].Err, graph.ErrShed) {
		t.Fatalf("output err %v, want ErrShed", out[0].Err)
	}
	g.Close()
	st := g.Stats()
	if st.Shed == 0 || st.Delivered != 0 {
		t.Fatalf("stats with edge faults armed: %+v", st)
	}
	if gets, puts := pool.Stats(); gets != puts {
		t.Fatalf("edge fault leaked frames: %d gets, %d puts", gets, puts)
	}
}

// TestProcessContextExpiry: a Process racing a gated graph returns at the
// deadline with ctx errors in unresolved slots, and the graph still drains
// and balances afterwards.
func TestProcessContextExpiry(t *testing.T) {
	p := newPool(t)
	var pool raster.Pool
	releaseCh := make(chan struct{})
	g, err := graph.Build(graph.Spec{
		Nodes: []graph.NodeSpec{{Name: "slow", Proc: func(_ *recognizer.Scratch, _ *graph.Msg) error {
			<-releaseCh
			return nil
		}}},
		Ingest: graph.EdgeSpec{Cap: 1, Policy: graph.DropOldest},
	}, p, graph.Config{Recycle: pool.Put})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	in := make([]graph.Input, 8)
	for i := range in {
		in[i] = graph.Input{Frame: pool.Get(16, 16), Value: i}
	}
	start := time.Now()
	out, err := g.Process(ctx, in)
	if err != nil {
		t.Fatal(err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("Process ignored its deadline")
	}
	expired := 0
	for _, o := range out {
		if errors.Is(o.Err, context.DeadlineExceeded) {
			expired++
		}
	}
	if expired == 0 {
		t.Fatalf("no output carried the deadline error: %+v", out)
	}
	close(releaseCh)
	g.Close()
	if gets, puts := pool.Stats(); gets != puts {
		t.Fatalf("expired Process leaked frames: %d gets, %d puts", gets, puts)
	}
}

// TestAbandonDiscardsQueued: Abandon on a gated graph discards without
// delivering, promptly, and balances the pool.
func TestAbandonDiscardsQueued(t *testing.T) {
	p := newPool(t)
	var pool raster.Pool
	releaseCh := make(chan struct{})
	delivered := 0
	var mu sync.Mutex
	g, err := graph.Build(graph.Spec{
		Nodes: []graph.NodeSpec{{Name: "slow", Proc: func(_ *recognizer.Scratch, _ *graph.Msg) error {
			<-releaseCh
			return nil
		}}},
		Ingest: graph.EdgeSpec{Cap: 4, Policy: graph.DropOldest},
	}, p, graph.Config{
		Recycle: pool.Put,
		Deliver: func(string, graph.Msg) { mu.Lock(); delivered++; mu.Unlock() },
	})
	if err != nil {
		t.Fatal(err)
	}
	const N = 16
	for i := 0; i < N; i++ {
		if err := g.Submit(pool.Get(16, 16), nil, nil); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	go func() {
		time.Sleep(5 * time.Millisecond)
		close(releaseCh)
	}()
	g.Abandon()
	st := g.Stats()
	if st.Abandoned+st.Shed == 0 {
		t.Fatalf("abandon discarded nothing: %+v", st)
	}
	mu.Lock()
	mu.Unlock()
	if gets, puts := pool.Stats(); gets != puts {
		t.Fatalf("abandon leaked frames: %d gets, %d puts", gets, puts)
	}
	if err := g.Submit(nil, nil, nil); !errors.Is(err, graph.ErrClosed) {
		t.Fatalf("submit after abandon: %v, want ErrClosed", err)
	}
}

// TestEdgeStatsShedNeverExceedsArrived snapshots Stats while several
// goroutines push into a cap-1 DropOldest edge whose node is stalled, so
// nearly every push evicts: no snapshot may show an edge with more shed
// than arrived messages.
func TestEdgeStatsShedNeverExceedsArrived(t *testing.T) {
	p := newPool(t)
	gate := make(chan struct{})
	g, err := graph.Build(graph.Spec{
		Nodes: []graph.NodeSpec{{Name: "stalled", Proc: func(_ *recognizer.Scratch, _ *graph.Msg) error {
			<-gate
			return nil
		}}},
		Ingest: graph.EdgeSpec{Cap: 1, Policy: graph.DropOldest},
	}, p, graph.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	defer close(gate)

	const pushers, pushes = 4, 50000
	var wg sync.WaitGroup
	for i := 0; i < pushers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < pushes; j++ {
				if err := g.Submit(nil, nil, nil); err != nil {
					t.Errorf("submit: %v", err)
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for snapshots := 0; ; snapshots++ {
		for _, e := range g.Stats().Edges {
			if e.Shed > e.Arrived {
				t.Fatalf("snapshot %d: edge %q→%q shed %d of %d arrived", snapshots, e.From, e.To, e.Shed, e.Arrived)
			}
		}
		select {
		case <-done:
			return
		default:
		}
	}
}

// TestPolicyStrings pins the wire names /statsz reports.
func TestPolicyStrings(t *testing.T) {
	for pol, want := range map[graph.Policy]string{
		graph.Block:      "block",
		graph.DropOldest: "drop-oldest",
		graph.Stride:     "stride",
		graph.Policy(42): "invalid",
	} {
		if got := pol.String(); got != want {
			t.Errorf("Policy(%d).String() = %q, want %q", int(pol), got, want)
		}
	}
}

// TestConformanceIdentityNode runs the conformance kit against the simplest
// possible node — the kit's own self-test.
func TestConformanceIdentityNode(t *testing.T) {
	graphtest.Run(t, graphtest.Node{
		Name:   "identity",
		Proc:   passProc,
		Frames: true,
		Value:  func(i int) any { return i },
	})
}

// TestConcurrentSubmitClose hammers Submit from several goroutines while
// the graph closes underneath them: no panic, no leak, every accepted
// message terminal exactly once.
func TestConcurrentSubmitClose(t *testing.T) {
	p := newPool(t)
	var pool raster.Pool
	g, err := graph.Build(graph.Spec{
		Nodes:  []graph.NodeSpec{{Name: "a", Proc: passProc}},
		Ingest: graph.EdgeSpec{Cap: 2, Policy: graph.DropOldest},
	}, p, graph.Config{Recycle: pool.Put})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				f := pool.Get(8, 8)
				if err := g.Submit(f, nil, nil); err != nil {
					// Refused: ownership stays here.
					pool.Put(f)
				}
			}
		}()
	}
	time.Sleep(2 * time.Millisecond)
	g.Close()
	wg.Wait()
	if gets, puts := pool.Stats(); gets != puts {
		t.Fatalf("concurrent close leaked frames: %d gets, %d puts", gets, puts)
	}
	st := g.Stats()
	if st.Delivered+st.Shed+st.Abandoned != st.Submitted {
		t.Fatalf("terminal accounting off: %+v", st)
	}
}
